"""Weight-bearing checks in the package must survive ``python -O``.

``-O`` strips ``assert`` statements, so every check in ``src/k3siegel``
raises a typed exception instead.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _offences(path: Path) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Assert):
            out.append(f"{path.name}:{node.lineno}: assert")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                out.append(f"{path.name}:{node.lineno}: raise AssertionError")
    return out


def test_no_assert_in_package():
    files = sorted((SRC / "k3siegel").glob("*.py"))
    assert files
    offences = [o for f in files for o in _offences(f)]
    assert offences == []


def test_typed_error_under_optimize():
    code = ("from k3siegel import linalg, picard2\n"
            "from k3siegel.intpoly import IntPoly, PolynomialDomainError\n"
            "for gram in ([[-2]], [[1, 1], [1, 1]]):\n"
            "    try:\n"
            "        linalg.short_vectors(gram, 2)\n"
            "    except linalg.MatrixDomainError:\n"
            "        print('typed error')\n"
            "ring = picard2.IntegralRing(IntPoly([-3, -1, 1]))\n"
            "try:\n"
            "    ring.divide([IntPoly([1])], IntPoly([2]))\n"
            "except picard2.CertificationError:\n"
            "    print('typed error')\n"
            "from k3siegel.algnum import NumberFieldElem\n"
            "try:\n"
            "    NumberFieldElem(IntPoly([-1, 0, 1]), IntPoly([-1, 1])).inverse()\n"
            "except ZeroDivisionError:\n"
            "    print('typed error')\n"
            "from k3siegel.algnum import RationalFunctionW, symmetric_descent\n"
            "try:\n"
            "    symmetric_descent(RationalFunctionW.variable())\n"
            "except PolynomialDomainError:\n"
            "    print('typed error')\n"
            "from k3siegel import intpoly\n"
            "try:\n"
            "    intpoly.Z.divide([1], 2)\n"
            "except intpoly.PolynomialDomainError:\n"
            "    print('typed error')\n"
            "try:\n"
            "    intpoly.interpolate([0, 0, 1])\n"
            "except intpoly.PolynomialDomainError:\n"
            "    print('typed error')\n"
            "from k3siegel import hyplattice, salemlib\n"
            "from k3siegel.intpoly import cyclotomic\n"
            "store = salemlib.load_store()\n"
            "phi = IntPoly([-1, 0, 1]) * store[(20, 1)].salem_poly\n"
            "psi = store[(10, 1)].salem_poly * cyclotomic(21)\n"
            "hyplattice.series_coefficients = lambda psi, phi, count: [0] * count\n"
            "try:\n"
            "    hyplattice._b_matrix_in_a_basis(phi, psi)\n"
            "except hyplattice.LatticeBuildError:\n"
            "    print('typed error')\n"
            "from k3siegel import setup2\n"
            "import numpy as np\n"
            "try:\n"
            "    setup2._first_leaves(np.array([[setup2._FLOAT_EXACT] + [0] * 11]),\n"
            "                         setup2._descartes_maps()[1])\n"
            "except intpoly.PolynomialDomainError:\n"
            "    print('typed error')\n"
            "setup2._WORD_BOUNDS = (1 << 31,) * 12\n"
            "try:\n"
            "    setup2._descartes_maps()\n"
            "except intpoly.PolynomialDomainError:\n"
            "    print('typed error')\n"
            "setup2._WORD_BOUNDS = (1 << 22,) * 12\n"
            "try:\n"
            "    setup2._norm_hits()\n"
            "except intpoly.PolynomialDomainError:\n"
            "    print('typed error')\n"
            "setup2._LEAF_LIMIT = 1 << 60\n"
            "try:\n"
            "    setup2._shift_map()\n"
            "except intpoly.PolynomialDomainError:\n"
            "    print('typed error')\n"
            "from k3siegel import hodgeclass\n"
            "s20 = store[(20, 1)].salem_poly\n"
            "try:\n"
            "    hodgeclass.dissect(intpoly.trace_polynomial(IntPoly([-1, 0, 1]) * s20),\n"
            "                       intpoly.trace_polynomial(s20 * cyclotomic(3)))\n"
            "except hodgeclass.PipelineError:\n"
            "    print('typed error')\n"
            "from k3siegel import picardweyl\n"
            "try:\n"
            "    picardweyl.dynkin_label([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])\n"
            "except hodgeclass.PipelineError:\n"
            "    print('typed error')\n"
            "try:\n"
            "    salemlib.trace_conjugates(IntPoly([-5, 0, 1]))\n"
            "except salemlib.SalemDataError:\n"
            "    print('typed error')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["typed", "error"] * 15
