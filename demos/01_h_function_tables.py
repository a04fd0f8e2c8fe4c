"""Walk through the H-function machinery on small reference links.

Builds the two-variable Alexander data of several two-bridge operator
links, evaluates the H-function by inclusion-exclusion, and prints the
tables together with the derived R_t values and the width N.

Run:  python3 demos/01_h_function_tables.py
"""

from lsat import (
    HFunction,
    half,
    hf_table_tsv,
    twobridge_data,
    unlink_data,
    validate,
    width,
)
from lsat.sweeps import FAMILY_PAIRS


def show(title: str, data) -> None:
    h = HFunction(data)
    print(f"== {title} (linking {h.linking}) ==")
    # Coordinates, R values and the width are doubled ints: l/2 is l.
    print(hf_table_tsv(h, width(data) + 4))
    print(f"width N        = {half(width(data))}")
    print(f"R at winding/2 = {half(h.r_of_t(h.linking))}")
    failures = validate(h)
    print(f"validation     = {failures or 'ok'}")
    print()


def main() -> None:
    show("two-component unlink", unlink_data())
    show("positive Hopf link, pattern (3,1)", twobridge_data(3, 1))
    show("Whitehead pattern (3,3)", twobridge_data(3, 3))
    show("Mazur pattern (5,3)", twobridge_data(5, 3))

    # The closed R-value formulas for the two-bridge family: at the
    # center column R = (r+q-2)/4 and one column off R = (r+q-6)/4.
    print("== closed R formulas across the family ==")
    for r, q in FAMILY_PAIRS:
        h = HFunction(twobridge_data(r, q))
        center = h.r_of_t(h.linking)
        off = h.r_of_t(h.linking - 2)
        print(
            f"(r,q)=({r},{q})  l={h.linking}  "
            f"R_center={half(center)} (expect {(r + q - 2)}/4)  "
            f"R_minus={half(off)} (expect {(r + q - 6)}/4)"
        )


if __name__ == "__main__":
    main()
