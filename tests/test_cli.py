import json

import pytest

from traceaug import cli
from traceaug.cli import main
from traceaug.manifest import content_hash
from traceaug.traces import DirectionTrace, fit_length, load_dtrace, load_ttrace, save_dtrace


def run(*argv):
    return main([str(a) for a in argv])


def output_hashes(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return manifest["outputs"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small generated corpus shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("pipeline")
    assert run("gen", "--classes", 3, "--visits", 8, "--seed", 7, "--out", root / "data") == 0
    assert run(
        "ncm-split", "--in", root / "data" / "dataset.ttrace",
        "--out", root / "split", "--trace-len", 120, "--seed", 0,
    ) == 0
    return root


class TestGen:
    def test_writes_dataset_and_manifest(self, tmp_path):
        assert run("gen", "--classes", 2, "--visits", 3, "--seed", 1, "--out", tmp_path) == 0
        dataset = load_ttrace(tmp_path / "dataset.ttrace")
        assert len(dataset) == 2 * 2 * 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "gen" and manifest["seed"] == 1

    def test_rerun_hashes_stable(self, tmp_path):
        args = ("gen", "--classes", 2, "--visits", 3, "--seed", 5)
        assert run(*args, "--out", tmp_path / "a") == 0
        assert run(*args, "--out", tmp_path / "b") == 0
        a = content_hash(tmp_path / "a" / "dataset.ttrace")
        b = content_hash(tmp_path / "b" / "dataset.ttrace")
        assert a == b

    def test_single_class_is_usage_error(self, tmp_path, capsys):
        assert run("gen", "--classes", 1, "--out", tmp_path) == 2
        assert "classes" in capsys.readouterr().err

    def test_missing_out_is_usage_error(self, capsys):
        assert run("gen", "--classes", 2) == 2
        assert "--out" in capsys.readouterr().err


class TestNcmSplit:
    def test_split_counts_and_formats(self, corpus):
        superior = load_dtrace(corpus / "split" / "superior.dtrace")
        inferior = load_dtrace(corpus / "split" / "inferior.dtrace")
        assert len(superior) == len(inferior) == 3 * 8
        assert all(len(t) == 120 for t in superior + inferior)

    def test_empty_input(self, tmp_path):
        empty = tmp_path / "empty.ttrace"
        empty.write_text("")
        assert run("ncm-split", "--in", empty, "--out", tmp_path / "out") == 0
        assert (tmp_path / "out" / "superior.dtrace").read_text() == ""
        assert (tmp_path / "out" / "inferior.dtrace").read_text() == ""

    def test_malformed_line_exits_1_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.ttrace"
        bad.write_text('{"label":0,"cells":[[0.0,-1,512],[2.0,-1,512]]}\ngarbage\n')
        assert run("ncm-split", "--in", bad, "--out", tmp_path / "out") == 1
        assert "line 2" in capsys.readouterr().err

    def test_degenerate_traces_warned_and_skipped(self, tmp_path, capsys):
        path = tmp_path / "degen.ttrace"
        path.write_text(
            '{"label":0,"cells":[[0.0,-1,512],[1.0,-1,512]]}\n'
            '{"label":1,"cells":[[5.0,-1,512]]}\n'
        )
        assert run("ncm-split", "--in", path, "--out", tmp_path / "out") == 0
        err = capsys.readouterr().err
        assert "trace 1" in err or "skipping" in err


class TestAugmentCommand:
    def test_deterministic_outputs(self, corpus, tmp_path):
        src = corpus / "split" / "superior.dtrace"
        args = ("augment", "--in", src, "--seed", 5)
        assert run(*args, "--out", tmp_path / "a") == 0
        assert run(*args, "--out", tmp_path / "b") == 0
        assert content_hash(tmp_path / "a" / "augmented.dtrace") == content_hash(
            tmp_path / "b" / "augmented.dtrace"
        )

    @pytest.mark.parametrize("method", ["net", "flip"])
    def test_chunk_size_does_not_change_output(self, corpus, tmp_path, monkeypatch, method):
        # every fifth trace shortened, so chunks also break at length changes
        mixed = [
            DirectionTrace(fit_length(t.cells, 90), t.label) if i % 5 == 0 else t
            for i, t in enumerate(load_dtrace(corpus / "split" / "superior.dtrace"))
        ]
        src = tmp_path / "mixed.dtrace"
        save_dtrace(src, mixed)
        digests = set()
        for chunk in (1, 7, 3 * len(mixed)):
            monkeypatch.setattr(cli, "AUGMENT_CHUNK", chunk)
            out = tmp_path / f"chunk{chunk}"
            assert run("augment", "--in", src, "--method", method, "--views", 3,
                       "--seed", 3, "--out", out) == 0
            digests.add(content_hash(out / "augmented.dtrace"))
        assert len(digests) == 1
        assert [len(t) for t in load_dtrace(out / "augmented.dtrace")][:6] == [90] * 3 + [120] * 3

    def test_flip_method_and_views(self, corpus, tmp_path):
        src = corpus / "split" / "superior.dtrace"
        assert run("augment", "--in", src, "--method", "flip", "--views", 2,
                   "--out", tmp_path / "f") == 0
        augmented = load_dtrace(tmp_path / "f" / "augmented.dtrace")
        assert len(augmented) == 2 * len(load_dtrace(src))

    def test_does_not_mutate_input(self, corpus, tmp_path):
        src = corpus / "split" / "superior.dtrace"
        before = content_hash(src)
        assert run("augment", "--in", src, "--seed", 1, "--out", tmp_path / "x") == 0
        assert content_hash(src) == before


class TestStats:
    def test_histogram_and_class_stats(self, corpus, tmp_path):
        assert run("stats", "--in", corpus / "split" / "superior.dtrace",
                   "--out", tmp_path) == 0
        header = (tmp_path / "burst_sizes.bdist").read_text().splitlines()[0]
        assert header == "bdist v1"
        lines = (tmp_path / "incoming_stats.txt").read_text().splitlines()
        assert len(lines) == 3  # one per class
        label, mean, std = lines[0].split()
        float(mean), float(std)


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    assert run(
        "pretrain", "--in", corpus / "split" / "superior.dtrace",
        "--out", root / "pt", "--epochs", 2, "--batch", 8,
        "--trace-len", 120, "--embed", 16, "--hidden", "32",
        "--seed", 3,
    ) == 0
    assert run(
        "finetune", "--model", root / "pt" / "model.ckpt",
        "--in", corpus / "split" / "superior.dtrace",
        "--out", root / "ft", "--epochs", 3, "--seed", 3,
    ) == 0
    return root


class TestTrainingCommands:
    def test_pretrain_outputs(self, trained):
        assert (trained / "pt" / "model.ckpt").exists()
        history = (trained / "pt" / "loss_history.txt").read_text().splitlines()
        assert len(history) == 2

    def test_pretrain_reproducible(self, corpus, tmp_path):
        args = (
            "pretrain", "--in", corpus / "split" / "superior.dtrace",
            "--epochs", 1, "--batch", 8, "--trace-len", 120,
            "--embed", 16, "--hidden", "32", "--seed", 9,
        )
        assert run(*args, "--out", tmp_path / "a") == 0
        assert run(*args, "--out", tmp_path / "b") == 0
        assert content_hash(tmp_path / "a" / "model.ckpt") == content_hash(
            tmp_path / "b" / "model.ckpt"
        )

    def test_eval_cw(self, corpus, trained, tmp_path):
        assert run(
            "eval-cw", "--model", trained / "ft" / "model.ckpt",
            "--in", corpus / "split" / "inferior.dtrace", "--out", tmp_path,
        ) == 0
        accuracy = float((tmp_path / "accuracy.txt").read_text())
        assert 0.0 <= accuracy <= 1.0

    def test_eval_ow_records(self, corpus, trained, tmp_path):
        assert run(
            "eval-ow", "--model", trained / "ft" / "model.ckpt",
            "--in", corpus / "split" / "inferior.dtrace",
            "--thresholds", "0,0.5,1.0", "--out", tmp_path,
        ) == 0
        lines = (tmp_path / "pr.txt").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            threshold, precision, recall, f1 = map(float, line.split())
            assert 0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0

    def test_eval_ow_unsorted_thresholds_usage_error(self, corpus, trained, tmp_path):
        assert run(
            "eval-ow", "--model", trained / "ft" / "model.ckpt",
            "--in", corpus / "split" / "inferior.dtrace",
            "--thresholds", "0.9,0.1", "--out", tmp_path,
        ) == 2

    def test_netfm_runs_and_records(self, corpus, tmp_path):
        assert run(
            "netfm", "--labeled", corpus / "split" / "superior.dtrace",
            "--unlabeled", corpus / "split" / "superior.dtrace",
            "--out", tmp_path, "--epochs", 1, "--batch", 4, "--mu", 2,
            "--trace-len", 120, "--embed", 16, "--hidden", "32",
            "--tau-f", "0.5", "--seed", 2,
        ) == 0
        retained = (tmp_path / "retained_history.txt").read_text().splitlines()
        assert len(retained) == 6  # ceil(24/4) steps x 1 epoch
        assert all(int(r) >= 0 for r in retained)


class TestOpenWorldFlow:
    def test_unmonitored_labels_train_and_evaluate(self, corpus, tmp_path):
        # relabel one class as unmonitored (-1) to build an open-world corpus
        traces = load_dtrace(corpus / "split" / "superior.dtrace")
        from traceaug.traces import DirectionTrace, save_dtrace

        mixed = [
            DirectionTrace(t.cells, label=-1 if t.label == 2 else t.label)
            for t in traces
        ]
        ow = tmp_path / "openworld.dtrace"
        save_dtrace(ow, mixed)
        assert run(
            "pretrain", "--in", ow, "--out", tmp_path / "pt", "--epochs", 1,
            "--batch", 8, "--trace-len", 120, "--embed", 16, "--hidden", "32",
        ) == 0
        assert run(
            "finetune", "--model", tmp_path / "pt" / "model.ckpt", "--in", ow,
            "--out", tmp_path / "ft", "--epochs", 2,
        ) == 0
        assert run(
            "eval-ow", "--model", tmp_path / "ft" / "model.ckpt", "--in", ow,
            "--thresholds", "0,0.5,1.0", "--out", tmp_path / "ow",
        ) == 0
        lines = (tmp_path / "ow" / "pr.txt").read_text().splitlines()
        assert len(lines) == 3
        # threshold 0 flags everything scored on the monitored classes
        _, _, recall, _ = map(float, lines[0].split())
        assert 0.0 <= recall <= 1.0


class TestGradcheckCommand:
    def test_passes_on_fresh_params(self, tmp_path, capsys):
        assert run("gradcheck", "--out", tmp_path, "--instances", 2, "--seed", 0) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_fails_with_exit_3_on_impossible_tolerance(self, tmp_path):
        assert run("gradcheck", "--out", tmp_path, "--instances", 2, "--seed", 0,
                   "--tolerance", "1e-18") == 3


class TestConfigFile:
    def test_config_file_sets_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("classes=2\nvisits=3\nseed=4\n")
        assert run("gen", "--config", cfg, "--out", tmp_path / "a") == 0
        assert len(load_ttrace(tmp_path / "a" / "dataset.ttrace")) == 2 * 2 * 3
        # explicit flag beats the file
        assert run("gen", "--config", cfg, "--classes", 3, "--out", tmp_path / "b") == 0
        assert len(load_ttrace(tmp_path / "b" / "dataset.ttrace")) == 3 * 2 * 3

    def test_bad_config_line_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("classes\n")
        assert run("gen", "--config", cfg, "--out", tmp_path / "x") == 2


class TestManifests:
    def test_manifest_input_and_output_hashes(self, corpus):
        manifest = json.loads((corpus / "split" / "manifest.json").read_text())
        data_file = str(corpus / "data" / "dataset.ttrace")
        assert manifest["inputs"][data_file] == content_hash(data_file)
        for path, digest in manifest["outputs"].items():
            assert content_hash(path) == digest

    def test_unknown_command_usage_error(self):
        assert run("frobnicate") == 2
