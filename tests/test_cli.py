import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ismaf.cli import main


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    rc = main([
        "synth", "--n", "40", "--d", "6", "--separation", "3",
        "--seed", "11", "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(
        "d = 8\nheads = 2\nbatch_size = 8\nepochs = 1\ntoken_len = 4\n"
        "kernel_sizes = 2,3\ntheta = 0.6\nseed = 5\ngat_layers = 1\n"
    )
    return path


class TestSynth:
    def test_writes_all_three_jsonl_files(self, data_dir):
        for name in ("posts.jsonl", "comments.jsonl", "users.jsonl"):
            assert (data_dir / name).exists()

    def test_post_schema(self, data_dir):
        first = json.loads((data_dir / "posts.jsonl").read_text().splitlines()[0])
        assert set(first) == {"id", "tokens", "visual_feat", "user_id", "label"}
        assert first["label"] in (0, 1)
        assert len(first["visual_feat"]) == 6

    def test_comment_schema(self, data_dir):
        first = json.loads((data_dir / "comments.jsonl").read_text().splitlines()[0])
        assert set(first) == {"id", "tokens", "user_id", "post_id"}

    def test_bad_arguments_nonzero_exit(self, tmp_path, capsys):
        rc = main(["synth", "--n", "5", "--d", "4", "--out", str(tmp_path / "x")])
        assert rc != 0
        assert "error:" in capsys.readouterr().err


class TestTrainEval:
    def test_full_workflow(self, tmp_path, data_dir, config_file, capsys):
        model_path = tmp_path / "model.json"
        rc = main([
            "train", "--config", str(config_file), "--data", str(data_dir),
            "--out", str(model_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert model_path.exists()
        assert "test accuracy" in out

        report_path = tmp_path / "report.txt"
        rc = main([
            "eval", "--model", str(model_path), "--data", str(data_dir),
            "--split", "test", "--report", str(report_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        text = report_path.read_text()
        for key in ("accuracy", "precision", "recall", "f1", "tp", "fp", "tn", "fn"):
            assert f"{key} = " in text
        assert "accuracy = " in out

    def test_eval_zero_social_flag(self, tmp_path, data_dir, config_file, capsys):
        model_path = tmp_path / "model.json"
        assert main([
            "train", "--config", str(config_file), "--data", str(data_dir),
            "--out", str(model_path),
        ]) == 0
        capsys.readouterr()
        rc = main([
            "eval", "--model", str(model_path), "--data", str(data_dir),
            "--split", "val", "--zero-social",
        ])
        assert rc == 0

    def test_missing_config_nonzero(self, tmp_path, data_dir, capsys):
        rc = main([
            "train", "--config", str(tmp_path / "absent.txt"),
            "--data", str(data_dir), "--out", str(tmp_path / "m.json"),
        ])
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        (None, "missing field 'label'"),
        ("[1, 2]", "expected a JSON object, got list"),
    ], ids=["missing-label", "list-line"])
    def test_bad_posts_line_named_on_stderr(self, tmp_path, data_dir, config_file, capsys, line, message):
        posts = data_dir / "posts.jsonl"
        lines = posts.read_text().splitlines()
        row = json.loads(lines[3])
        del row["label"]
        lines[3] = json.dumps(row) if line is None else line
        posts.write_text("".join(x + "\n" for x in lines))
        rc = main([
            "train", "--config", str(config_file), "--data", str(data_dir),
            "--out", str(tmp_path / "m.json"),
        ])
        assert rc != 0
        assert capsys.readouterr().err == f"error: {posts}:4: {message}\n"

    def test_corrupt_model_nonzero(self, tmp_path, data_dir, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main(["eval", "--model", str(bad), "--data", str(data_dir)])
        assert rc != 0
        assert "error:" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_and_prints_one_line_per_check(self, capsys):
        rc = main(["gradcheck", "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [line for line in out.splitlines() if "max relative error" in line]
        assert len(lines) == 6
        assert all("[PASS]" in line for line in lines)


class TestSweepCommand:
    def test_three_rows_with_bounded_metrics(self, data_dir, config_file, capsys):
        rc = main([
            "sweep", "--lambda-index", "2", "--range", "0:1:0.5",
            "--config", str(config_file), "--data", str(data_dir),
            "--epochs", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert len(rows) == 3
        assert [r[0] for r in rows] == ["0", "0.5", "1"]
        for _, acc, f1 in rows:
            assert 0.0 <= float(acc) <= 1.0
            assert 0.0 <= float(f1) <= 1.0

    def test_bad_range_nonzero(self, data_dir, config_file, capsys):
        rc = main([
            "sweep", "--lambda-index", "2", "--range", "0:1",
            "--config", str(config_file), "--data", str(data_dir),
        ])
        assert rc != 0
        assert "error:" in capsys.readouterr().err


# numpy is the package's only runtime dependency: a process that imports
# ismaf, trains one step and builds the CLI parser loads from files no
# top-level module but the standard library's, numpy's and ismaf's, so a
# stray import of a test extra such as hypothesis fails here even where the
# extras are installed.  The modules that site hooks load at start-up are
# not the package's, nor are those that Cython's runtime makes in memory.
_ONE_STEP = """
import sys
start = set(sys.modules)
import ismaf
from ismaf import cli, training
steps = []
step = training.Adam.step
training.Adam.step = lambda self, *args: steps.append(step(self, *args))
cfg = ismaf.TrainConfig(d=8, heads=2, batch_size=64, epochs=1, token_len=4,
                        kernel_sizes=(2, 3), gat_layers=1)
ismaf.train(cfg, ismaf.generate_synthetic(n=40, d=8, separation=2.0, seed=1))
cli._build_parser()
loaded = {name for name, m in sys.modules.items() if name not in start and getattr(m, "__file__", None)}
print(len(steps), *sorted({name.partition(".")[0] for name in loaded}))
"""


def test_numpy_is_the_only_runtime_dependency():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _ONE_STEP], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    steps, *loaded = done.stdout.split()
    assert steps == "1" and {"ismaf", "numpy"} <= set(loaded)
    assert set(loaded) - set(sys.stdlib_module_names) - {"ismaf", "numpy"} == set()
