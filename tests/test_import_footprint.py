"""A fresh interpreter verifies the paper's inputs without loading scipy.

scipy is imported where it is used: ``linalg.operators.psd_factor`` (Kraus
compression) loads ``scipy.linalg``, and nothing else in the library loads
scipy; the ``⊑_inf`` gap over two or more predicates is numpy only.  Each
check runs in a new process, because this test process has long since
imported scipy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

COLD_RUN = textwrap.dedent(
    """
    import json
    import sys
    from pathlib import Path


    def scipy_modules():
        return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))


    def loaded(*names):
        return [name for name in names if name in sys.modules]


    report = {}
    import repro

    report["import"] = scipy_modules()

    import numpy as np

    from repro import verify_formula
    from repro.assistant.verify import verify_source
    from repro.linalg.constants import P0, P1, PPLUS
    from repro.predicates.sdp import max_min_expectation_gap
    from repro.programs import (
        deutsch_formula,
        errcorr_formula,
        errcorr_program,
        grover_program,
        qwalk_formula,
        qwalk_invariant,
        qwalk_program,
        rus_formula,
        rus_invariant,
    )
    from repro.semantics.denotational import denotation
    from repro.superop.kraus import SuperOperator

    report["verify_source"] = [
        verify_source(Path("examples", name).read_text()).verified
        for name in ("bitflip.nqpv", "resetloop.nqpv")
    ]
    qwalk, qwalk_register = qwalk_formula()
    rus, rus_register = rus_formula(nondeterministic=True)
    report["rus_mode"] = rus.mode.name
    report["verify_formula"] = [
        verify_formula(*errcorr_formula()).verified,
        verify_formula(*deutsch_formula()).verified,
        verify_formula(qwalk, qwalk_register, invariants=[qwalk_invariant()]).verified,
        verify_formula(rus, rus_register, invariants=[rus_invariant()]).verified,
    ]
    report["denotation_sizes"] = [
        len(denotation(program))
        for program in (grover_program(3, layout="gates"), errcorr_program(3), qwalk_program(4))
    ]
    report["gaps"] = [
        [gap.lower, gap.upper]
        for gap in (
            max_min_expectation_gap([P0, P1], np.zeros((2, 2))),
            max_min_expectation_gap([P0, P1, PPLUS], np.zeros((2, 2))),
        )
    ]
    report["before_compression"] = scipy_modules()

    sys.path.insert(0, "tests")
    from test_superop_kraus import choi_rank, redundant_kraus

    report["simplified"] = []
    for dimension, rank, count in ((4, 5, 9), (4, 5, 16)):
        channel = SuperOperator(redundant_kraus(dimension, rank, count, seed=count))
        result = channel.simplified()
        report["simplified"].append(
            {
                "rank": len(result.kraus_operators),
                "choi_rank": choi_rank(channel),
                "equals": result.equals(channel),
            }
        )
    report["after_compression"] = loaded("scipy.linalg.lapack", "scipy.optimize")
    print(json.dumps(report))
    """
)


@pytest.fixture(scope="module")
def cold_report():
    environment = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", COLD_RUN],
        cwd=REPO,
        env=environment,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy(cold_report):
    assert cold_report["import"] == []


def test_paper_inputs_verify_and_denote_without_scipy(cold_report):
    assert cold_report["verify_source"] == [True, True]
    assert cold_report["rus_mode"] == "TOTAL"
    assert cold_report["verify_formula"] == [True, True, True, True]
    assert cold_report["denotation_sizes"] == [1, 4, 1]
    assert cold_report["before_compression"] == []


def test_compression_loads_scipy_linalg_on_both_sides(cold_report):
    # (4, 5, 9) takes the Gram side (k < d²), (4, 5, 16) the Choi side (k ≥ d²).
    for entry in cold_report["simplified"]:
        assert entry["equals"]
        assert entry["rank"] == entry["choi_rank"] == 5
    assert cold_report["after_compression"] == ["scipy.linalg.lapack"]


def test_gap_over_several_predicates_loads_no_scipy(cold_report):
    # max_ρ min over {P0, P1} is 1/2, and so is the one over {P0, P1, P+}.
    # The gaps run before any compression, so no scipy module (scipy.optimize
    # included) may be loaded after them.
    for lower, upper in cold_report["gaps"]:
        assert lower == pytest.approx(0.5, abs=1e-9)
        assert upper == pytest.approx(0.5, abs=1e-9)
    assert cold_report["before_compression"] == []
