import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import traceaug
from traceaug import cli
from traceaug.augment import AugmentConfig
from traceaug.cli import main
from traceaug.losses import SslConfig
from traceaug.manifest import content_hash, environment
from traceaug.models import ModelDims
from traceaug.traces import DirectionTrace, fit_length, load_dtrace, load_ttrace, save_dtrace
from traceaug.training import TrainConfig


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

    @pytest.mark.parametrize("flag", [
        "--superior-bandwidth", "--superior-control", "--inferior-bandwidth",
        "--inferior-control", "--jitter", "--noise",
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_is_usage_error(self, tmp_path, capsys, flag, value):
        assert run("gen", "--classes", 2, flag, value, "--out", tmp_path / "out") == 2
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--superior-bandwidth", "--inferior-bandwidth"])
    def test_zero_bandwidth_is_usage_error(self, tmp_path, capsys, flag):
        assert run("gen", "--classes", 2, flag, "0", "--out", tmp_path / "out") == 2
        assert f"{flag.lstrip('-')} must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestNcmSplit:
    def test_split_counts_and_formats(self, corpus):
        superior = load_dtrace(corpus / "split" / "superior.dtrace")
        inferior = load_dtrace(corpus / "split" / "inferior.dtrace")
        assert len(superior) == len(inferior) == 3 * 8
        assert all(len(t) == 120 for t in superior + inferior)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_threshold_is_usage_error_before_input_is_read(self, tmp_path, capsys, value):
        assert run("ncm-split", "--in", tmp_path / "absent.ttrace", "--threshold", value,
                   "--out", tmp_path / "out") == 2
        assert "threshold" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("label", ["1.5", "true", '"7"'])
    def test_non_integer_label_exits_1_with_line_number(self, tmp_path, capsys, label):
        bad = tmp_path / "bad.ttrace"
        bad.write_text(f'{{"label":{label},"cells":[[0.0,-1,512],[2.0,-1,512]]}}\n')
        assert run("ncm-split", "--in", bad, "--out", tmp_path / "out") == 1
        assert "line 1: label must be an integer or null" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        '{"label":0,"cells":[[0.0,-1,512],[2.0,-1,100000000000000000000000]]}',
        '{"label":100000000000000000000000,"cells":[[0.0,-1,512],[2.0,-1,512]]}',
    ])
    def test_oversized_integer_exits_1_with_line_number(self, tmp_path, capsys, record):
        bad = tmp_path / "bad.ttrace"
        bad.write_text('{"label":0,"cells":[[0.0,-1,512],[2.0,-1,512]]}\n' + record + "\n")
        assert run("ncm-split", "--in", bad, "--out", tmp_path / "out") == 1
        assert "error: line 2: " in capsys.readouterr().err

    def test_degenerate_traces_warned_and_skipped(self, tmp_path, capsys):
        path = tmp_path / "degen.ttrace"
        path.write_text(
            '{"label":0,"cells":[[0.0,-1,512],[1.0,-1,512]]}\n'
            '{"label":1,"cells":[[5.0,-1,512]]}\n'
        )
        assert run("ncm-split", "--in", path, "--out", tmp_path / "out") == 0
        captured = capsys.readouterr()
        assert "warning: skipping trace 1: " in captured.err
        assert "skipped: 1" in captured.out
        kept = load_dtrace(tmp_path / "out" / "superior.dtrace")
        kept += load_dtrace(tmp_path / "out" / "inferior.dtrace")
        assert [t.label for t in kept] == [0]


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


def run_fresh(threads, *argv):
    """``traceaug argv`` in a new process, so that BLAS reads ``threads`` as
    its thread count when it starts."""
    src_dir = str(Path(traceaug.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "traceaug.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


class TestBlasThreads:
    def test_augment_bytes_do_not_depend_on_blas_threads(self, corpus, tmp_path):
        digests = set()
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            run_fresh(threads, "augment", "--views", 2, "--seed", 4,
                      "--in", corpus / "split" / "superior.dtrace", "--out", out)
            digests.add(content_hash(out / "augmented.dtrace"))
        assert len(digests) == 1

    def test_pretrain_bytes_repeat_in_fresh_processes_at_one_blas_thread(self, corpus, tmp_path):
        # the promise covers one numpy/BLAS build at one BLAS thread count;
        # trained weights may differ between thread counts
        digests = set()
        for run_id in ("a", "b"):
            out = tmp_path / run_id
            run_fresh("1", "pretrain", "--in", corpus / "split" / "superior.dtrace",
                      "--epochs", 1, "--batch", 8, "--trace-len", 120, "--embed", 16,
                      "--hidden", 32, "--seed", 9, "--out", out)
            digests.add(content_hash(out / "model.ckpt"))
        assert len(digests) == 1


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

    def test_label_past_int64_exits_1_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.dtrace"
        bad.write_text("0\t1 -1\n100000000000000000000000\t1 -1\n")
        assert run("stats", "--in", bad, "--out", tmp_path / "out") == 1
        assert "error: line 2: label " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stats", "augment", "pretrain"])
def test_empty_corpus_says_no_traces(command, tmp_path, capsys):
    empty = tmp_path / "empty.dtrace"
    empty.write_text("")
    assert run(command, "--in", empty, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == "error: no traces in corpus\n"
    assert not (tmp_path / "out" / "manifest.json").exists()


class TestHeapTrim:
    @pytest.mark.parametrize("outcome", [0, "raise"])
    def test_heap_is_trimmed_after_the_command(self, tmp_path, monkeypatch, outcome):
        calls = []

        def command(args, out):
            calls.append("command")
            if outcome == "raise":
                raise OSError("disk full")
            return [], []

        monkeypatch.setattr(cli, "cmd_stats", command)
        monkeypatch.setattr(cli, "_malloc_trim", lambda pad: calls.append(("trim", pad)))
        code = run("stats", "--in", tmp_path / "x.dtrace", "--out", tmp_path / "out")
        assert calls == ["command", ("trim", 0)]
        assert code == (1 if outcome == "raise" else 0)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
    def test_glibc_trim_is_found(self):
        assert cli._malloc_trim is not None


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
    def test_finetune_on_no_traces_exits_1(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty.dtrace"
        empty.write_text("")
        assert run("finetune", "--model", trained / "pt" / "model.ckpt", "--in", empty,
                   "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: no labeled traces\n"
        assert not (tmp_path / "out" / "manifest.json").exists()

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

    @pytest.mark.parametrize("command", ["eval-cw", "eval-ow"])
    def test_eval_refuses_a_checkpoint_without_classifier(
        self, corpus, trained, tmp_path, capsys, command
    ):
        # a pretrain checkpoint, and a corpus with one unmonitored trace
        corpus_traces = load_dtrace(corpus / "split" / "inferior.dtrace")
        corpus_traces[0] = DirectionTrace(corpus_traces[0].cells, label=-1)
        src = tmp_path / "ow.dtrace"
        save_dtrace(src, corpus_traces)
        assert run(command, "--model", trained / "pt" / "model.ckpt", "--in", src,
                   "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "has no classifier" in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("command, label, flags", [
        ("eval-cw", 5, ()), ("eval-ow", 7, ("--class-correct",)), ("eval-ow", 3, ()),
    ])
    def test_eval_refuses_a_label_without_class(
        self, corpus, trained, tmp_path, capsys, command, label, flags
    ):
        # the checkpoint has classes 0..2
        relabeled = [DirectionTrace(t.cells, label=label)
                     for t in load_dtrace(corpus / "split" / "inferior.dtrace")]
        src = tmp_path / "relabeled.dtrace"
        save_dtrace(src, relabeled)
        model = trained / "ft" / "model.ckpt"
        assert run(command, "--model", model, "--in", src, *flags,
                   "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            f"error: label {label} has no class in {model}, which has 3 classes\n"
        )
        assert not (tmp_path / "out" / "manifest.json").exists()

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


PRETRAIN = ("pretrain", "--in", "absent.dtrace")
NETFM = ("netfm", "--labeled", "absent.dtrace", "--unlabeled", "absent.dtrace")

#: A command that defines each flag, with inputs that do not exist.
ABSENT_INPUTS = {
    "--tau-s": PRETRAIN, "--hidden": PRETRAIN, "--embed": PRETRAIN,
    "--tau-f": NETFM, "--lambda-u": NETFM, "--mu": NETFM,
    "--visits": ("gen",),
    "--thresholds": ("eval-ow", "--model", "absent.ckpt", "--in", "absent.dtrace"),
    "--step": ("gradcheck",), "--tolerance": ("gradcheck",),
}


class TestTrainFlags:
    @pytest.mark.parametrize("flag,value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-1e-3"), ("--lr", "fast"),
        ("--momentum", "nan"), ("--momentum", "-0.5"),
        ("--tau-s", "nan"), ("--tau-s", "inf"), ("--lambda-u", "nan"), ("--lambda-u", "inf"),
        ("--tau-f", "nan"), ("--tau-s", "0"), ("--tau-f", "0"), ("--tau-f", "1.5"),
        ("--hidden", "0"), ("--hidden", "-5"), ("--embed", "6"), ("--epochs", "0"),
        ("--batch", "0"), ("--mu", "0"),
        ("--visits", "0"), ("--visits", "2,0"), ("--visits", "1,2,3"),
        ("--thresholds", "0,2"), ("--thresholds", "0.5,0.1"), ("--thresholds", "nan"),
        ("--step", "0"), ("--step", "nan"), ("--tolerance", "nan"), ("--tolerance", "-1"),
    ])
    def test_bad_value_is_usage_error_before_any_input_is_read(
        self, tmp_path, capsys, flag, value, monkeypatch
    ):
        # the input files do not exist: a usage error must come first; one
        # token, so a negative value reaches the flag's converter
        monkeypatch.chdir(tmp_path)
        command = ABSENT_INPUTS.get(
            flag, ("finetune", "--model", "absent.ckpt", "--in", "absent.dtrace")
        )
        assert run(*command, f"{flag}={value}", "--out", tmp_path / "out") == 2
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_value_in_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        for entry in ("lr=nan", "hidden=0"):
            cfg.write_text(f"seed=1\n{entry}\n")
            assert run(
                "pretrain", "--config", cfg, "--in", tmp_path / "absent.dtrace",
                "--out", tmp_path / "out",
            ) == 2
            assert f"{cfg}:2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestAugmentFlags:
    @pytest.mark.parametrize("command", [
        ("augment", "--in", "absent.dtrace"), ABSENT_INPUTS["--tau-s"], ABSENT_INPUTS["--tau-f"],
    ], ids=["augment", "pretrain", "netfm"])
    @pytest.mark.parametrize("flag,value", [
        ("--p-flip", "2"), ("--n-merge", "1"), ("--shift-max", "-1"),
    ])
    def test_out_of_range_value_is_usage_error_before_any_input_is_read(
        self, tmp_path, capsys, command, flag, value, monkeypatch
    ):
        # the input files do not exist: a usage error must come first
        monkeypatch.chdir(tmp_path)
        assert run(*command, flag, value, "--out", tmp_path / "out") == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


#: The configs each command builds, at its flags' defaults.
BUILT_CONFIGS = {
    "augment": [AugmentConfig()],
    "pretrain": [TrainConfig(), SslConfig(), ModelDims(), AugmentConfig()],
    "finetune": [TrainConfig(learning_rate=5e-4, batch_size=32)],
    "netfm": [
        TrainConfig(learning_rate=1e-2, batch_size=32, optimizer="sgd", momentum=0.9),
        SslConfig(), ModelDims(), AugmentConfig(),
    ],
}


class TestConfigDefaults:
    def test_ssl_and_train_configs_take_only_the_flags_a_command_defines(self):
        parser, _ = cli.build_parser()
        pre = parser.parse_args(["pretrain", "--in", "x", "--out", "y", "--tau-s", "0.2"])
        assert cli._config(SslConfig, pre) == SslConfig(tau_s=0.2)
        assert cli._config(TrainConfig, pre).mu == TrainConfig.mu
        fm = parser.parse_args([
            "netfm", "--labeled", "a", "--unlabeled", "b", "--out", "y",
            "--mu", "3", "--lambda-u", "0.5", "--tau-f", "0.8",
        ])
        # --mu is TrainConfig's; SslConfig.mu is unread and keeps its default
        assert cli._config(SslConfig, fm) == SslConfig(tau_f=0.8, lambda_u=0.5)
        assert cli._config(TrainConfig, fm).mu == 3

    @pytest.mark.parametrize("command", sorted(cli.build_parser()[1]))
    def test_parsed_defaults_build_the_dataclass_defaults(self, command):
        parser, commands = cli.build_parser()
        required = [a.option_strings[0] for a in commands[command]._actions if a.required]
        args = parser.parse_args([command] + [tok for flag in required for tok in (flag, "x")])
        for expected in BUILT_CONFIGS.get(command, []):
            assert cli._config(type(expected), args) == expected

    def test_burst_threshold_flag_keeps_its_dest(self):
        parser, _ = cli.build_parser()
        args = parser.parse_args(["augment", "--in", "x", "--out", "y", "--burst-threshold", "7"])
        assert args.burst_threshold == 7
        assert cli._config(AugmentConfig, args).burst_size_threshold == 7


class TestNonFiniteLoss:
    def test_pretrain_stops_with_exit_1_and_writes_no_checkpoint(self, corpus, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(
                "pretrain", "--in", corpus / "split" / "superior.dtrace",
                "--out", tmp_path, "--epochs", 2, "--batch", 8, "--trace-len", 120,
                "--embed", 16, "--hidden", "32", "--lr", "1e300", "--optimizer", "sgd",
            )
        assert code == 1
        assert "pretrain: loss is nan at epoch 1, step" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()
        assert not (tmp_path / "loss_history.txt").exists()
        assert not (tmp_path / "manifest.json").exists()


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
        families = dict(
            line.split() for line in (tmp_path / "gradcheck.txt").read_text().splitlines()
        )
        assert float(families["encoder_pseudo_label"]) < 1e-4
        assert float(families["encoder_zero_tail"]) < 1e-4

    def test_fails_with_exit_3_on_impossible_tolerance(self, tmp_path):
        assert run("gradcheck", "--out", tmp_path, "--instances", 2, "--seed", 0,
                   "--tolerance", "1e-18") == 3
        # a failed check still writes its report and a manifest that hashes it
        report = tmp_path / "gradcheck.txt"
        assert "passed 0.0" in report.read_text().splitlines()
        assert output_hashes(tmp_path) == {str(report): content_hash(report)}


class TestConfigFile:
    def test_config_file_sets_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("classes=2\nvisits=3\nseed=4\n")
        assert run("gen", "--config", cfg, "--out", tmp_path / "a") == 0
        assert len(load_ttrace(tmp_path / "a" / "dataset.ttrace")) == 2 * 2 * 3
        # explicit flag beats the file
        assert run("gen", "--config", cfg, "--classes", 3, "--out", tmp_path / "b") == 0
        assert len(load_ttrace(tmp_path / "b" / "dataset.ttrace")) == 3 * 2 * 3

    def test_required_flag_from_the_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"classes=2\nvisits=1\nout={tmp_path / 'c'}\n")
        assert run("gen", "--config", cfg) == 0
        assert len(load_ttrace(tmp_path / "c" / "dataset.ttrace")) == 2 * 2 * 1

    def test_bad_config_line_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("classes\n")
        assert run("gen", "--config", cfg, "--out", tmp_path / "x") == 2

    def test_unknown_key_is_usage_error_naming_file_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("classes=2\n# a comment\nfrobnicate=1\n")
        assert run("gen", "--config", cfg, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3" in err and "frobnicate" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("entry", ["cosine=yes", "classes=abc", "optimizer=rmsprop"])
    def test_bad_value_is_usage_error_naming_file_line(self, tmp_path, capsys, entry):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=1\n{entry}\n")
        assert run("gen", "--config", cfg, "--out", tmp_path / "x") == 2
        assert f"{cfg}:2" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert run("gen", "--config", tmp_path / "absent.cfg", "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize("text,expected", [
        ("true", True), ("1", True), ("FALSE", False), ("0", False),
    ])
    def test_boolean_keys_are_parsed(self, corpus, trained, tmp_path, text, expected):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"cosine={text}\nclass-correct={text}\n")

        def config(out):
            return json.loads((out / "manifest.json").read_text())["config"]

        assert run(
            "eval-ow", "--config", cfg, "--model", trained / "ft" / "model.ckpt",
            "--in", corpus / "split" / "inferior.dtrace", "--out", tmp_path / "ow",
        ) == 0
        assert config(tmp_path / "ow")["class_correct"] is expected
        assert run(
            "pretrain", "--config", cfg, "--in", corpus / "split" / "superior.dtrace",
            "--epochs", 1, "--batch", 8, "--trace-len", 120, "--embed", 16,
            "--hidden", "32", "--out", tmp_path / "pt",
        ) == 0
        assert config(tmp_path / "pt")["cosine"] is expected
        # an explicit flag still beats the file
        assert run(
            "eval-ow", "--config", cfg, "--class-correct",
            "--model", trained / "ft" / "model.ckpt",
            "--in", corpus / "split" / "inferior.dtrace", "--out", tmp_path / "ow2",
        ) == 0
        assert config(tmp_path / "ow2")["class_correct"] is True


class TestManifests:
    def test_manifest_input_and_output_hashes(self, corpus):
        manifest = json.loads((corpus / "split" / "manifest.json").read_text())
        data_file = str(corpus / "data" / "dataset.ttrace")
        assert manifest["inputs"][data_file] == content_hash(data_file)
        for path, digest in manifest["outputs"].items():
            assert content_hash(path) == digest

    def test_manifest_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "1")
        assert run("gen", "--classes", 2, "--visits", 1, "--out", tmp_path) == 0
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        assert env == {
            "traceaug": traceaug.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "OPENBLAS_NUM_THREADS": "3",
            "OMP_NUM_THREADS": None,
            "MKL_NUM_THREADS": "1",
        }
        monkeypatch.delattr(np.__config__, "CONFIG")  # as in numpy < 1.26
        assert environment()["blas"] is None

    def test_package_version_matches_pyproject(self):
        # a regex, not tomllib: Python 3.10 has no TOML reader
        text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
        assert re.search(r'^version = "([^"]+)"$', text, re.M)[1] == traceaug.__version__

    def test_unknown_command_usage_error(self):
        assert run("frobnicate") == 2
