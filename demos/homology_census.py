"""Walk through the homology census of the built-in manifolds.

For each fixture we read the linking matrix, compute H1 as the cokernel
of the matrix from its invariant factors (the ``imm5.surgery`` module
docstring says which route finds them), and list the census that
classifies immersions with trivial normal bundle: the Wu classes
(Gamma2, one bit per even torsion factor) and a copy of Z over each.
"""

from imm5 import gamma2_elements, homology_profile, spin_structures
from imm5.fixtures import fixture_names, presentation


def describe(name: str) -> None:
    p = presentation(name)
    h = homology_profile(p)
    print(f"== {p.name} (linking matrix {p.q.entries or '()'})")
    torsion = ", ".join(map(str, h.torsion_factors)) or "none"
    print(f"   H1 = Z^{h.betti1} + torsion [{torsion}]")
    print(f"   alpha = {h.alpha}, so |Gamma2| = {h.gamma2_order}")
    spins = spin_structures(p)
    print(f"   spin structures: {len(spins)} = 2^({h.betti1} + {h.alpha})")
    components = ", ".join(str(c) for c in gamma2_elements(h))
    print(f"   immersion classes = Gamma2 x Z, components: {components}")
    print()


def main() -> None:
    print("Census of immersion classes for the built-in manifolds\n")
    for name in fixture_names():
        describe(name)
    print("The 3-sphere has a single class per integer; the 3-torus has")
    print("trivial Gamma2 as well, so its classes are also just integers,")
    print("but eight spin structures instead of one.")


if __name__ == "__main__":
    main()
