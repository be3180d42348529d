"""Byte identity of the CLI's text output.

Each case runs one CLI command and compares the SHA-256 digest of its
stdout with a digest pinned from the output of commit dd5b0e2 (the last
commit that formatted one number per call).  The four scalar-scheme digests
were re-pinned when the scalar step moved onto the vector insertion rule,
which moved its control points by at most 8.9e-16.  The eight subdivide and
four basis digests were re-pinned when every frequency moved onto one
evaluation path (scaled-kernel pieces, Horner-form series), which moved
their numbers by at most 1.8e-15; the render digests, printed with fewer
digits, did not move.  The two 12-level subdivide digests were pinned from
commit ec636ca, the last commit that refined each level in one pass; their
last step runs two blocks of the blocked kernels.  The four ``verify
--suite all`` digests were pinned from commit 415e209, before the float
routes of ``bezier``, ``greens`` and ``curve.reproduction_errors`` were
reworked, which must change no byte of that report.  The input documents are
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
    # 12 levels on 6 nodes: the last step refines 12,288 spans in two blocks
    + [("subdivide", "perturbed", scheme, "12") for scheme in ("vector", "scalar")]
)


def argv_for(case, paths):
    command, a, b, *levels = case
    if command == "subdivide":
        return ["subdivide", paths[a], "--levels",
                levels[0] if levels else str(SUBDIVIDE_LEVELS[a]), "--scheme", b]
    if command == "render":
        return ["render", paths[a], "--handles", "--samples-per-span", b]
    return (["basis", "--omega0", "3pi/4", "--which", a, "--range", "-1.5", "0",
             "--samples", "301"] + (["--deriv"] if b else []))


GOLDEN = {
    ("subdivide", "circle", "vector"):
        "489cf3be3151d45eadffecb96bc72ba1c439ce45e9d57213d699cf4d28bfc951",
    ("subdivide", "circle", "scalar"):
        "1d2b0073900dfe357bea1f7f8dd9945da41595f15563f2bd5d17360a2705c55d",
    ("subdivide", "ellipse", "vector"):
        "f581142c6878160da7011fa5dd4c12260f8f15b55a77b050ad4e3f64386ed97b",
    ("subdivide", "ellipse", "scalar"):
        "eaa431151cc30baaeb366b6b7b1e326213f491fdca9ea169f96aa14ff1784a99",
    ("subdivide", "cusp", "vector"):
        "a7393c9a03a3e2ab0db4a1fbb7d1e8c3d5794dd9a68d9ffdd598c530b0c1aeec",
    ("subdivide", "cusp", "scalar"):
        "e9cae799ee3258719b66c498f586e22fcf6215b4c7f90688fd5b8493c0132044",
    ("subdivide", "perturbed", "vector"):
        "4aa7291205a43bc7c77c90eac52fe6e369aba6c5b90887b04b2068dc41fae6ed",
    ("subdivide", "perturbed", "scalar"):
        "7886a675a440f00a863aa822c40ea93ab73ab483857fd6eacf7d6d68ba886f92",
    ("render", "ellipse", "16"):
        "d68c69741ed45b70a748bcc050c88f8a019a1509920c4354c8f5802e74c8020b",
    ("render", "ellipse", "64"):
        "f4a813ad38e212b41b21108c20a8e6d2b308635a1c8dd68a762f9dc742610001",
    ("render", "perturbed", "16"):
        "a3f3901bdd3108d876dff3dffdaf3c41a4a9dca9c6af5ad319604d3d9b6ed384",
    ("render", "perturbed", "64"):
        "17162a8c4e33fd37de32f3940db3b5013b343df6abdf30ff5e6bbd76cac74aa4",
    ("basis", "1", ""):
        "37c53ad4f0d2d965c2c7dcfe387702b01b795ab25bd82636dfa6114489f7019c",
    ("basis", "1", "deriv"):
        "7806e5dc2d3fe5c7524c1ea576b0ade0ce0665f54f655be967e8f696ae97dd37",
    ("basis", "2", ""):
        "0512689c29155783e2899f68d530d45196c6a4f5a4bc2047ccf5224b01b1a979",
    ("basis", "2", "deriv"):
        "25a17af3b755af623f49ff6896869c7728c3ff30a40379f59f2f18adb5b99fd2",
    ("subdivide", "perturbed", "vector", "12"):
        "11ff96199bec87921c26277b7d7780170ebd9106fea3a6c9a4284dcb73905d5a",
    ("subdivide", "perturbed", "scalar", "12"):
        "7e9856b1602e81f999d2fab12d8a380f1ca1f2810b93bce4eb377da751ec819e",
}


@pytest.mark.parametrize("case", CASES, ids=["-".join(filter(None, c)) for c in CASES])
def test_cli_output_bytes_match_golden(tmp_path, capsys, case):
    assert main(argv_for(case, _write_inputs(tmp_path))) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[case]



VERIFY_GOLDEN = {
    "0": "ebc9d750d832b3b120fc6306a8a5bb20f5529920f326dea18504cb89157d47d2",
    "1e-5": "c4a940b63ee2aac2ebfca88c2845877e4398775fdf3e101bb01460856810041a",
    "3pi/4": "0baad17723c58278065a7e78a89fe06f7f546adf62a8f3bf6753ce15a71c1477",
    "pi": "f77dbde8ea3e50d3db893b6cf944599fcb24c14e19b3a72258c67feca2e95ab0",
}


@pytest.mark.parametrize("omega0", VERIFY_GOLDEN)
def test_verify_report_bytes_match_golden(capsys, omega0):
    assert main(["verify", "--suite", "all", "--omega0", omega0]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VERIFY_GOLDEN[omega0]
