"""What it takes for squeezing to see the entanglement: a level coherence.

Family states with a negative coherence y between the doubly excited and
doubly ground levels do squeeze.  This script sweeps y for fixed populations,
shows both criteria switching on, and round-trips one squeezed state through
the JSON density-matrix file format used by `cavsqueeze check-state`.
"""

import json
import math
import tempfile

from cavsqueeze import (
    FamilyCoeffs,
    family_density,
    family_squeezing_condition,
    load_density_matrix,
    negativity,
    ppt_entangled,
    xi2_family,
    xi_squared,
)


def state_document(rho):
    rows = [[[z.real, z.imag] for z in row] for row in rho.mat]
    return {"dims": [2, 2], "rows": rows}


def main():
    x1, x3 = 0.9, 0.1
    bound = math.sqrt(x1 * x3)
    print(f"Populations fixed at (x1, x2, x3) = ({x1}, 0, {x3}); sweeping y.\n")
    print(f"{'y':>7} {'xi^2':>10} {'squeezing':>10} {'negativity':>11} {'transpose':>10}")
    for y in [0.0, -0.05, -0.1, -0.15, -0.2, -0.25, -bound]:
        c = FamilyCoeffs(x1, 0.0, x3, y)
        rho = family_density(c)
        print(
            f"{y:7.3f} {xi2_family(c):10.4f}"
            f" {str(family_squeezing_condition(c)):>10}"
            f" {negativity(rho):11.4f}"
            f" {str(ppt_entangled(rho)):>10}"
        )

    print()
    print("Any y != 0 entangles the state, but the squeezing condition only")
    print("fires once 2y + 2 - <Sz^2> drops below <Sz>^2.")

    # frame optimization agrees with the fixed-frame closed form here, because
    # a real negative y puts the softest variance exactly on the x axis
    c = FamilyCoeffs(x1, 0.0, x3, -0.3)
    rho = family_density(c)
    result = xi_squared(rho)
    print(f"\nFrozen case y = -0.3: closed form {xi2_family(c):.6f},")
    print(f"frame-optimized {result.value:.6f}, minimizing axis n1 = {result.frame.n1.round(6)}")

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(state_document(rho), fh)
        path = fh.name
    back = load_density_matrix(path)
    print(f"\nState file round trip through {path}:")
    print(f"reloaded negativity {negativity(back):.6f}, transpose verdict {ppt_entangled(back)}")
    print(f"(same file works with: cavsqueeze check-state {path})")


if __name__ == "__main__":
    main()
