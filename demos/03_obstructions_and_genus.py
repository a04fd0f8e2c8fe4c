"""Operator classification, the slice-genus bound, and genus formulas.

Shows how the exactness classifier separates trivial and identity-like
satellite operators from genuinely obstructed ones, evaluates the lower
bound that tau imposes on the pattern invariants, and computes relative
Seifert genus and smooth four-genus values in the supported regimes.

Run:  python3 demos/03_obstructions_and_genus.py
"""

from lsat import (
    Companion,
    classify_operator,
    g3rel,
    g3rel_framed,
    g4_satellite_regime,
    tau_inequality_check,
    twobridge_profile,
    unlink_profile,
)


def main() -> None:
    print("== classifier ==")
    for prof, label in (
        (unlink_profile(), "unlink"),
        (twobridge_profile(3, 1), "positive Hopf (3,1)"),
        (twobridge_profile(3, 3), "Whitehead (3,3)"),
        (twobridge_profile(5, 3), "Mazur (5,3)"),
    ):
        kind, failed_claim = classify_operator(prof.hfunction())
        print(f"{label:22s} -> {kind}"
              + (f"  ({failed_claim})" if failed_claim else ""))

    print()
    print("== satellite tau dominates the comparison cable ==")
    K = Companion(tau=1, eps=1)
    for prof, label in (
        (twobridge_profile(3, 3), "Whitehead"),
        (twobridge_profile(5, 3), "Mazur"),
        (twobridge_profile(7, 5), "(7,5)"),
    ):
        for n in (0, 1):
            holds = tau_inequality_check(prof, K, n)
            print(f"{label:10s} n={n}  inequality holds: {holds}")

    print()
    print("== relative Seifert genus ==")
    for r, q in ((3, 3), (5, 3), (7, 3), (9, 5)):
        prof = twobridge_profile(r, q)
        print(f"({r},{q}): g3rel = {g3rel(prof)}  (g3 of the pattern = {prof.g3})")

    from lsat import bridge_braid_profile, cable_profile

    print()
    print("== framed relative genus for minimal wrapping ==")
    for prof, n, label in (
        (cable_profile(3, 2), 1, "cable (3,2), n=1"),
        (bridge_braid_profile(4, 5, 2), 2, "braid (4,5,2), n=2"),
    ):
        print(f"{label:20s} -> {g3rel_framed(prof, n)}")

    print()
    print("== smooth four-genus when tau detects it ==")
    mazur = twobridge_profile(5, 3)
    whitehead = twobridge_profile(3, 3)
    for prof, K, n, label in (
        (mazur, Companion(tau=1, eps=1), 0, "Mazur, tau=1, n=0"),
        (whitehead, Companion(tau=2, eps=1), 3, "Whitehead, tau=2, n=3"),
        (mazur, Companion(tau=2, eps=1), 0, "Mazur, tau=2, n=0"),
    ):
        val, _ = g4_satellite_regime(prof, K, n)
        print(f"{label:24s} -> g4 = {val}")


if __name__ == "__main__":
    main()
