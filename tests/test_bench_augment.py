import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_augment.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_augment", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_accumulate_and_a_mixed_setup_is_refused(bench, tmp_path):
    out = str(tmp_path / "bench.json")
    small = ["--rows", "2", "--repeats", "1", "--out", out]
    assert bench.main(small) == 0
    assert bench.main(small) == 0
    doc = json.loads(Path(out).read_text())
    assert len(doc["runs"]["change"]) == 2
    assert doc["setup"]["rows"] == 2
    with pytest.raises(SystemExit):
        bench.main(["--rows", "3", "--repeats", "1", "--out", out])
    assert json.loads(Path(out).read_text()) == doc
