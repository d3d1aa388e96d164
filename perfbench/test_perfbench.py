"""The benchmark's own tests, at smoke size.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int = 0, *extra: str):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "42", "--seconds", "0", "--trace", str(trace), "--smoke",
            *extra,
        ],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc, result = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {
        metric["name"]: metric["unit"]
        for metric in BENCHMARK["per_layer" if trace else "end_to_end"]
    }
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == declared
    lines = proc.stdout.splitlines()
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in lines)
    assert any(line.split()[:1] == ["error_rate"] for line in lines)


def test_tampered_expected_digest_fails_the_run(tmp_path):
    recorded = json.loads((HERE / "expected.json").read_text())
    recorded["wire_cap64@smoke"]["42"]["digest"] = "0" * 16
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(recorded))
    proc, result = run_bench("wire_cap64", 0, "--expected", str(tampered))
    assert proc.returncode == 1
    assert not result["correct"]
    assert "CHECK FAILED: digest" in proc.stdout


def _bindings() -> dict[tuple[str, str], object]:
    """Every function bound in a repro module or class defined there."""
    import inspect

    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in vars(module).items():
            if inspect.isfunction(value):
                seen[(name, key)] = value
            elif inspect.isclass(value) and value.__module__ == name:
                for slot, member in vars(value).items():
                    if inspect.isfunction(member):
                        seen[(name, f"{key}.{slot}")] = member
    return seen


def test_restoring_the_wrappers_leaves_the_signature_unchanged(tmp_path):
    from repro.study import StudyConfig, StudyRunner
    from spans import LAYERS, Installer, Tracer, install_layers

    config = StudyConfig(study=2, seed=42, scale=0.002, vault=str(tmp_path / "vault"))

    def signature() -> str:
        return StudyRunner(config).run().database.aggregate_signature()

    before = signature()
    bindings = _bindings()
    tracer = Tracer()
    with Installer() as installer:
        install_layers(installer, tracer)
        wrapped = _bindings()
        traced = signature()
    assert sum(wrapped[key] is not bindings[key] for key in bindings) >= len(LAYERS)
    restored = _bindings()
    assert all(restored[key] is bindings[key] for key in bindings)
    assert tracer.summary()["proxy.forge"]["calls"] > 0
    assert traced == before
    assert signature() == before
