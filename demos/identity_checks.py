"""Exercise the validators and the randomized oracle sweeps.

The invariants only make sense because a handful of closed-manifold
identities hold; this script feeds the validators witness data and then
runs the seeded oracle batteries that cross-check the exact linear
algebra against independent routes (determinantal divisors, Descartes
sign counts).
"""

from imm5.invariants import (
    ClosedMapRecordR5,
    ClosedMapRecordR6,
    ImmersionDoubleData,
    PartitionRecord,
    SeifertFillingR5,
    check_closed_r5,
    check_closed_r6,
    check_cusp_residue,
    check_partition_divisibility,
    check_spin_even_components,
)
from imm5.verify import run_oracles


def main() -> None:
    print("Closed-manifold identities on sample records:")
    r5 = ClosedMapRecordR5(sigma=-2, cusps_algebraic=6)
    print(f"  #cusps + 3*sigma = 0 for (sigma=-2, cusps=6): {check_closed_r5(r5)}")
    r6 = ClosedMapRecordR6(sigma=3, triple_points=1, singular_linking=4)
    print(f"  sigma - l + t = 0 for (3, t=1, l=4): {check_closed_r6(r6)}")

    spin = ClosedMapRecordR5(0, 0, cusps_per_component=(2, -4, 2), is_spin=True)
    print(f"  even cusps on each spin component (2, -4, 2): "
          f"{check_spin_even_components(spin)}")

    part = PartitionRecord((12, -12))
    print(f"  cusp counts (12, -12) both divisible by 6: "
          f"{check_partition_divisibility(part)}")

    filling = SeifertFillingR5(sigma=0, cusps_algebraic=24)
    print(f"  cusp residue: 24 = 12 mod 3 for L = 12: "
          f"{check_cusp_residue(filling, ImmersionDoubleData(12))}")

    print("\nSeeded oracle sweeps (seed 0):")
    for report in run_oracles(seed=0, trials=500):
        print(" ", report.summary())


if __name__ == "__main__":
    main()
