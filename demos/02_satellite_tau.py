"""Compute concordance tau of satellite knots two independent ways.

For each pattern profile and companion the closed-form branch formula
and the chain-complex oracle are evaluated separately and compared.
Also demonstrates the dedicated cable and braid-closure formulas and
the framing fold that absorbs an integer twisting into the surgery
coefficient.

Run:  python3 demos/02_satellite_tau.py
"""

from lsat import (
    Companion,
    tau_bridge_braid,
    tau_cable,
    tau_closed_form,
    tau_oracle,
    twobridge_profile,
)


def main() -> None:
    whitehead = twobridge_profile(3, 3)
    mazur = twobridge_profile(5, 3)

    print("== closed form vs oracle ==")
    for prof, label in ((whitehead, "Whitehead"), (mazur, "Mazur")):
        for tau, eps in ((1, 1), (-1, -1), (0, 0), (2, 1)):
            K = Companion(tau=tau, eps=eps)
            for n in (-2, 0, 1, 3):
                closed = tau_closed_form(prof, K, n)
                oracle = tau_oracle(prof, K, n)
                flag = "ok" if closed.value == oracle.value else "MISMATCH"
                print(
                    f"{label:9s} tau={tau:+d} eps={eps:+d} n={n:+d}  "
                    f"closed={closed.value:3d} [{closed.case_tag}]  "
                    f"oracle={oracle.value:3d}  {flag}"
                )

    print()
    print("== Whitehead doubles of a companion with tau=1, eps=1 ==")
    K = Companion(tau=1, eps=1)
    for n in range(-3, 2):
        res = tau_closed_form(whitehead, K, n)
        print(f"n={n:+d}: tau = {res.value}  ({res.case_tag})")

    print()
    print("== cables and braid closures ==")
    for p, q in ((2, 3), (3, 2), (5, 4)):
        for K in (Companion(tau=1, eps=1), Companion(tau=-2, eps=-1)):
            val = tau_cable(p, q, K, 0).value
            print(f"cable ({p},{q})  tau_K={K.tau:+d} eps={K.eps:+d}  -> {val}")
    for p, q, b in ((4, 5, 2), (5, 6, 2)):
        K = Companion(tau=1, eps=1)
        val = tau_bridge_braid(p, q, b, K, 0).value
        print(f"braid closure ({p},{q},{b})  -> {val}")

    print()
    print("== framing fold: twisting n folds into the cabling slope ==")
    K = Companion(tau=1, eps=1)
    for p, q, n in ((2, 1, 1), (3, 2, -1)):
        folded = tau_cable(p, q, K, n).value
        print(f"cable ({p},{q}) with n={n:+d}  ==  cable ({p},{q + p * n}): {folded}")


if __name__ == "__main__":
    main()
