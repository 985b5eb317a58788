import copy
from fractions import Fraction

import numpy as np
import pytest

from ringfill import Params, Triangulation, build_filling


@pytest.fixture(scope="session")
def small_build():
    """Smallest accepted filling at the canonical parameters, cheap enough
    for exhaustive cross-checks (Floyd-Warshall, all-pairs bounds)."""
    return build_filling(Params(25, Fraction(1, 10), Fraction(1, 4)))


@pytest.fixture(scope="session")
def medium_build():
    return build_filling(Params(64, Fraction(1, 10), Fraction(1, 4)))


def _flipped(build, a, b):
    """A copy of ``build`` with edge (a, b) flipped: (a, b, c) and (b, a, d) become (a, d, c) and (d, b, c)."""
    tri = np.asarray(build.triangulation.triangles)
    pair = np.flatnonzero((tri == a).any(axis=1) & (tri == b).any(axis=1))
    rows = tri[pair].tolist()
    if rows[0].index(b) != (rows[0].index(a) + 1) % 3:
        rows.reverse()
    c, d = (sum(row) - a - b for row in rows)
    flipped = copy.copy(build)
    rows = np.vstack([np.delete(tri, pair, axis=0), [(a, d, c), (d, b, c)]])
    flipped.triangulation = Triangulation(build.params.n, build.triangulation.num_vertices, rows)
    return flipped


@pytest.fixture(scope="session")
def flipped_builds(medium_build):
    """Valid disks with one edge of no cycle, annulus or cone: one edge flip each in the n = 64 build.

    Maps a name to the flipped build, the reference drift audit's line for
    its new edge and ``certify``'s defect lines.  Cycle 8 holds a shrink
    annulus, and cycle 23 is the innermost.  The two flipped rows go last,
    after the cone's fan, so the strips read the rows through an index.
    """
    cycle = medium_build.ledger
    flips = {
        "layer-skipping": (
            cycle[3].vertex(5),
            cycle[3].vertex(6),
            "edge (134, 261) joins cycle 2 to cycle 4, which are not adjacent",
            [
                "annulus 2 (collar) is not a strip: an id off its two cycles at row 2402 (134, 197, 261)",
                "annulus 3 (collar) is not a strip: 127 rows, not 128",
            ],
        ),
        "chord": (
            cycle[8].vertex(0),
            cycle[9].vertex(0),
            "edge (513, 575) is a chord of cycle 8",
            ["annulus 8 (shrink) is not a strip: three ids on one cycle at row 2402 (512, 513, 575)"],
        ),
        "apex": (
            cycle[23].vertex(0),
            cycle[23].vertex(1),
            "edge (1191, 1234) joins the apex to cycle 22, not to the innermost cycle 23",
            [
                "annulus 22 (shrink) is not a strip: an id off its two cycles at row 2402 (1191, 1218, 1234)",
                "the cone over cycle 23 is not a fan: 15 rows, not 16",
            ],
        ),
    }
    return {name: (_flipped(medium_build, a, b), line, defects) for name, (a, b, line, defects) in flips.items()}
