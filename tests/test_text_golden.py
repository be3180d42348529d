"""Byte identity of the CLI's text output.

Each case runs one CLI command and compares the SHA-256 digest of its
stdout with a digest pinned from the output of commit dd5b0e2 (the last
commit that formatted one number per call).  The four scalar-scheme digests
were re-pinned when the scalar step moved onto the vector insertion rule,
which moved its control points by at most 8.9e-16.  The input documents are
written here with ``json.dumps``, so they do not depend on the serializer
under test; one of them holds negative zeros, which the writers print as 0.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from exphermite import unit_circle
from exphermite.cli import main


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _curves():
    circle = unit_circle(3)
    ellipse = unit_circle(5).affine(_rotation(0.3) @ np.diag([2.0, 1.0]),
                                    np.array([0.25, -0.5]))
    cusp = unit_circle(8)
    cusp_tangents = cusp.tangents.copy()
    cusp_tangents[2] = 0.0
    base = unit_circle(6)
    rng = np.random.default_rng(20140101)
    points = base.points + 0.1 * rng.normal(size=base.points.shape)
    tangents = base.tangents + 0.1 * rng.normal(size=base.tangents.shape)
    points[1, 0] = points[4, 1] = -0.0
    tangents[2, 1] = tangents[5, 0] = -0.0
    return {
        "circle": (circle.points, circle.tangents),
        "ellipse": (ellipse.points, ellipse.tangents),
        "cusp": (cusp.points, cusp_tangents),
        "perturbed": (points, tangents),
    }


def _write_inputs(tmp_path):
    paths = {}
    for name, (points, tangents) in _curves().items():
        payload = {"version": 1, "M": len(points), "omega0_mode": "auto",
                   "points": points.tolist(), "tangents": tangents.tolist()}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


SUBDIVIDE_LEVELS = {"circle": 6, "ellipse": 4, "cusp": 3, "perturbed": 4}

CASES = (
    [("subdivide", name, scheme) for name in SUBDIVIDE_LEVELS
     for scheme in ("vector", "scalar")]
    + [("render", name, str(samples)) for name in ("ellipse", "perturbed")
       for samples in (16, 64)]
    + [("basis", which, deriv) for which in ("1", "2") for deriv in ("", "deriv")]
)


def argv_for(case, paths):
    command, a, b = case
    if command == "subdivide":
        return ["subdivide", paths[a], "--levels", str(SUBDIVIDE_LEVELS[a]),
                "--scheme", b]
    if command == "render":
        return ["render", paths[a], "--handles", "--samples-per-span", b]
    return (["basis", "--omega0", "3pi/4", "--which", a, "--range", "-1.5", "0",
             "--samples", "301"] + (["--deriv"] if b else []))


GOLDEN = {
    ("subdivide", "circle", "vector"):
        "3555c7c619878875ad482abca68173ccd3c9bea85f15eff5a40094902b77d109",
    ("subdivide", "circle", "scalar"):
        "b939e8f8b5a6c0c998b237cde5f167b12609fbe23f6b938343bee3748eeea838",
    ("subdivide", "ellipse", "vector"):
        "050da66d6620cca6a9990de751f892a9437c3a71eb79d056a0acaacac63a2899",
    ("subdivide", "ellipse", "scalar"):
        "d77f009d255c29097e18afeb021e564577ae4d212392e12d7144e9dce9e4a565",
    ("subdivide", "cusp", "vector"):
        "fea2123948c6cb311a6fe0229fdf5a65e2fbf8384cc7b7043a8b2a3237a1de4c",
    ("subdivide", "cusp", "scalar"):
        "dcbcfd30c20f13da76412e69347a5e17ff69b5deee6249d9ee303c071f7b6565",
    ("subdivide", "perturbed", "vector"):
        "f917935697cbf4127f310ae477307fabb0ba226bc2505654fe3f7b5aaeba7e05",
    ("subdivide", "perturbed", "scalar"):
        "354a42010086653d4d72f2720a61015dc107149f898226d04b7a324f24d61899",
    ("render", "ellipse", "16"):
        "d68c69741ed45b70a748bcc050c88f8a019a1509920c4354c8f5802e74c8020b",
    ("render", "ellipse", "64"):
        "f4a813ad38e212b41b21108c20a8e6d2b308635a1c8dd68a762f9dc742610001",
    ("render", "perturbed", "16"):
        "a3f3901bdd3108d876dff3dffdaf3c41a4a9dca9c6af5ad319604d3d9b6ed384",
    ("render", "perturbed", "64"):
        "17162a8c4e33fd37de32f3940db3b5013b343df6abdf30ff5e6bbd76cac74aa4",
    ("basis", "1", ""):
        "efa905897d1905dc54bf252ed559704e4c4049df12af76abf16256aea4ee5446",
    ("basis", "1", "deriv"):
        "32391db1a93bf364f3a8b9a82bb8f70a2c52cee2be7e8649bfdb3419b2097344",
    ("basis", "2", ""):
        "e8204d1ccb22eb15d67c60362a9c754e4afc20a0f0e0ca2de6bd2edfd93d4e53",
    ("basis", "2", "deriv"):
        "d12f1d885e678ccb9e98c67688ee43d5921c9138be5c8a57f70083c267fe7677",
}


@pytest.mark.parametrize("case", CASES, ids=["-".join(filter(None, c)) for c in CASES])
def test_cli_output_bytes_match_golden(tmp_path, capsys, case):
    assert main(argv_for(case, _write_inputs(tmp_path))) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[case]

