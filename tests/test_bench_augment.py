import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return load_tool("bench_augment")


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


def test_trace_data_timings_accumulate_per_label(tmp_path):
    bench = load_tool("bench_tracedata")
    out = str(tmp_path / "bench.json")
    small = ["--classes", "2", "--repeats", "1", "--out", out]
    assert bench.main(small + ["--label", "parent"]) == 0
    assert bench.main(small) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["median"].keys() == {"parent", "change"}
    assert set(doc["runs"]["change"][0]) == {
        "make_dataset_us_per_visit_c7", "make_dataset_us_per_visit_cli",
        "build_distribution_ns_per_cell_c7", "build_distribution_ns_per_cell_cli",
        "save_dtrace_ns_per_cell", "load_dtrace_ns_per_cell",
        "save_ttrace_ns_per_cell_cli", "load_ttrace_ns_per_cell_cli",
        *(f"{op}_ttrace_split_over_one_process_{key}"
          for op in ("save", "load")
          for key in (*bench.SMALL_FILES, *(f"{n}_chunks" for n in bench.CHUNK_COUNTS))),
    }
    assert all(value > 0 for value in doc["runs"]["change"][0].values())
    with pytest.raises(SystemExit):
        bench.main(["--classes", "3", "--repeats", "1", "--out", out])


def test_pretraining_timings_accumulate_per_label(tmp_path):
    bench = load_tool("bench_train")
    out = str(tmp_path / "bench.json")
    small = ["--classes", "2", "--per-class", "95", "--epochs", "1", "--out", out]
    assert bench.main(small + ["--label", "parent"]) == 0
    assert bench.main(small) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["median"].keys() == {"parent", "change"}
    [run] = doc["runs"]["change"]
    assert set(run) == {"net_pretrain_s", "flip_pretrain_s", "net_over_flip", "netfm_s",
                        "adam_us_per_step_c7", "adam_us_per_step_cli"}
    assert run["netfm_s"] > 0
    assert run["net_over_flip"] == pytest.approx(run["net_pretrain_s"] / run["flip_pretrain_s"],
                                                 rel=1e-2)
    with pytest.raises(SystemExit):
        bench.main(["--classes", "2", "--per-class", "95", "--epochs", "2", "--out", out])
    with pytest.raises(SystemExit):  # fewer visits than two batches
        bench.main(["--classes", "1", "--per-class", "10", "--out", str(tmp_path / "x.json")])
    with pytest.raises(SystemExit):  # fewer visits than 19 x the 10 labeled ones
        bench.main(["--classes", "2", "--per-class", "94", "--out", str(tmp_path / "x.json")])


def test_median_covers_runs_that_hold_the_figure(tmp_path):
    benchfile = load_tool("benchfile")
    ap = benchfile.parser("test", str(tmp_path / "bench.json"))
    args = ap.parse_args([])
    benchfile.record(ap, args, {}, lambda: {"a": 1.0})  # a run before "b" was added
    benchfile.record(ap, args, {}, lambda: {"a": 3.0, "b": 10.0})
    benchfile.record(ap, args, {}, lambda: {"a": 5.0, "b": 20.0})
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert doc["median"]["change"] == {"a": 3.0, "b": 15.0}
