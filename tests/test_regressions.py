"""Replay the promoted fuzz regression corpus under ``tests/regressions/``.

Every ``fuzz_<seed>_<index>.nqpv`` / ``.expected.json`` pair was once a real
divergence found by ``tools/fuzz.py`` (shrunk to a minimal program before
promotion); replaying them through the oracle pins the fixes forever after.
The corpus grows automatically: any new promotion is picked up by the
``glob`` below without touching this file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fuzz import OracleConfig, ReplayProgram
from repro.fuzz.differential import check_program

CORPUS_DIR = Path(__file__).resolve().parent / "regressions"
CORPUS = sorted(CORPUS_DIR.glob("fuzz_*.nqpv"))

#: Replay at the same truncation depth the in-suite sweep uses.
REPLAY_CONFIG = OracleConfig(max_iterations=16)


def _load(path: Path):
    expected = json.loads(path.with_name(path.stem + ".expected.json").read_text())
    program = ReplayProgram(
        text=path.read_text(), seed=expected["seed"], index=expected["index"]
    )
    return program, expected


def test_corpus_is_non_empty_and_paired():
    assert CORPUS, "the regression corpus must ship at least one promoted find"
    for path in CORPUS:
        expected_path = path.with_name(path.stem + ".expected.json")
        assert expected_path.exists(), f"{path.name} has no expectation file"
        expected = json.loads(expected_path.read_text())
        assert expected["expected"] == "all representation combinations agree"
        assert expected["history"], f"{path.name} records no historical divergence"
        assert expected["repro"].startswith("python tools/fuzz.py --seed ")


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_promoted_regressions_stay_fixed(path):
    program, expected = _load(path)
    divergences = check_program(program, REPLAY_CONFIG)
    assert not divergences, (
        f"{path.name} regressed — it historically diverged as "
        f"{expected['history'][0]['combo_a']} vs {expected['history'][0]['combo_b']} "
        f"({expected['history'][0]['kind']}); repro: {expected['repro']}\n"
        + "\n".join(f"{d.kind} {d.combo_a} vs {d.combo_b}: {d.detail}" for d in divergences)
    )
