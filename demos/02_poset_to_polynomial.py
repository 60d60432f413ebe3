"""From the DIB poset to the ZZ polynomial.

The pipeline on the hexagonal flake family [W,W,R,N,N]:

  1. build the poset of double interface bonds,
  2. enumerate its linear extensions,
  3. read descent and fixed-label statistics off each extension,
  4. assemble the closed binomial form and evaluate it.

The poset depends only on the shape sequence, so one symbolic form
covers the whole family at every length n.
"""

from zzstrips import (
    StripSpec,
    build_poset,
    closed_form,
    extension_records,
    natural_labeling,
    zz_polynomial,
)

FLAKE = tuple("WWRNN")

poset = build_poset(StripSpec(FLAKE, 3))
print(f"poset of {''.join(FLAKE)}: {poset.p} elements, {len(poset.covers)} covers")
for a, b in poset.covers:
    print(f"    s({a.k},{a.j}) < s({b.k},{b.j})")

labeling = natural_labeling(poset)
print("\ncanonical labeling (removal order):")
print("   ", ", ".join(f"s({e.k},{e.j})->{i}" for i, e in
                       enumerate(labeling.elements_by_label, start=1)))

print("\nlinear extensions with their statistics:")
for rec in extension_records(labeling):
    word = "".join(str(w) for w in rec.word)
    print(f"    {word}  des={rec.des}  fix={rec.fix}")

form = closed_form(StripSpec(FLAKE, 3))
print("\nclosed form (n symbolic):")
print("   ", form.as_text())
print("   ", form.as_latex())

print("\nevaluations:")
for n in range(1, 7):
    print(f"    n={n}:  {zz_polynomial(StripSpec(FLAKE, n))}")

# Hasse diagram for documentation
print("\nHasse diagram (DOT):")
print(poset.to_dot())
