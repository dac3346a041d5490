"""File formats (features, checkpoints, plain lists) and configuration."""
import ast
from pathlib import Path

import numpy as np
import pytest

from gesturegen import config, fileio
from gesturegen.errors import ConfigError, ParseError


def test_feature_file_roundtrip(tmp_path, rng):
    feats = rng.normal(0, 1, (7, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "x.feat"
    fileio.write_features(path, feats, "audio")
    back, modality = fileio.read_features(path)
    assert modality == "audio"
    assert back.dtype == np.float64
    assert np.array_equal(back, feats)  # float32-representable, so exact


def test_feature_file_header(tmp_path, rng):
    path = tmp_path / "x.feat"
    fileio.write_features(path, rng.normal(0, 1, (2, 3)), "text")
    raw = path.read_bytes()
    assert raw.startswith(b"MGFEAT1\n2 3\ntext\n")
    assert len(raw) == len(b"MGFEAT1\n2 3\ntext\n") + 2 * 3 * 4


def test_feature_file_rejects_corruption(tmp_path, rng):
    path = tmp_path / "x.feat"
    fileio.write_features(path, rng.normal(0, 1, (2, 3)), "audio")
    data = path.read_bytes()
    (tmp_path / "bad1.feat").write_bytes(b"NOPE" + data[7:])
    with pytest.raises(ParseError):
        fileio.read_features(tmp_path / "bad1.feat")
    (tmp_path / "bad2.feat").write_bytes(data[:-4])  # truncated payload
    with pytest.raises(ParseError):
        fileio.read_features(tmp_path / "bad2.feat")
    # negative dimensions whose product still fits the payload
    (tmp_path / "bad3.feat").write_bytes(b"MGFEAT1\n-2 -3\naudio\n" + data[-24:])
    with pytest.raises(ParseError) as e:
        fileio.read_features(tmp_path / "bad3.feat")
    assert e.value.line == 2 and "bad3.feat" in str(e.value)
    for value in (np.nan, np.inf, -np.inf):  # in the last value, so row 1
        (tmp_path / "bad4.feat").write_bytes(data[:-4] + np.float32(value).tobytes())
        with pytest.raises(ParseError, match="bad4.feat: non-finite value in feature row 1"):
            fileio.read_features(tmp_path / "bad4.feat")


def test_checkpoint_roundtrip_bit_exact(tmp_path, rng):
    arrays = {"w": rng.normal(0, 1, (3, 4)).astype(np.float32),
              "b": rng.normal(0, 1, 4).astype(np.float32),
              "scalar": np.array([2.5], dtype=np.float32)}
    cfg = {"model.d": 64, "train.lr": 0.002}
    path = tmp_path / "m.ckpt"
    fileio.write_checkpoint(path, arrays, cfg, step=17)
    back, cfg2, step = fileio.read_checkpoint(path)
    assert step == 17
    assert cfg2 == {"model.d": "64", "train.lr": "0.002"}
    for k in arrays:
        assert np.array_equal(back[k], arrays[k])
    # writing the same content twice is byte-identical
    fileio.write_checkpoint(tmp_path / "m2.ckpt", arrays, cfg, step=17)
    assert path.read_bytes() == (tmp_path / "m2.ckpt").read_bytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_names_the_first_array_with_a_non_finite_value(tmp_path, value):
    path = tmp_path / "m.ckpt"
    fileio.write_checkpoint(path, {"a": np.ones(3), "b": np.array([1.0, value]),
                                   "c": np.full(2, np.nan)}, {}, step=1)
    with pytest.raises(ParseError, match=r"m\.ckpt: non-finite value in array 'b'"):
        fileio.read_checkpoint(path)


def test_checkpoint_failed_write_keeps_old_file(tmp_path, rng):
    path = tmp_path / "m.ckpt"
    fileio.write_checkpoint(path, {"w": rng.normal(0, 1, (3, 4))}, {"model.d": 64}, step=1)
    before = path.read_bytes()
    with pytest.raises(ValueError):  # "z" is written after "a" and cannot become float64
        fileio.write_checkpoint(path, {"a": np.ones(2), "z": "not a number"}, {}, step=2)
    assert path.read_bytes() == before
    assert fileio.read_checkpoint(path)[2] == 1
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"WRONG\n--\n")
    with pytest.raises(ParseError):
        fileio.read_checkpoint(p)


@pytest.mark.parametrize("good,bad", [(b"\n2 3\n", b"\n2 x\n"), (b"step=5\n", b"step=five\n")],
                         ids=["shape", "step"])
def test_checkpoint_rejects_non_integer_shape_or_step(tmp_path, good, bad):
    p = tmp_path / "bad.ckpt"
    fileio.write_checkpoint(p, {"w": np.ones((2, 3))}, {"model.d": 64}, step=5)
    data = p.read_bytes()
    assert data.count(good) == 1
    p.write_bytes(data.replace(good, bad))
    with pytest.raises(ParseError) as e:
        fileio.read_checkpoint(p)
    assert str(p) in str(e.value)


def test_float_lines_roundtrip(tmp_path):
    path = tmp_path / "vals.txt"
    fileio.write_float_lines(path, [1.0, 0.25, -3.5])
    assert np.array_equal(fileio.read_float_lines(path), [1.0, 0.25, -3.5])
    path.write_text("1.5\n# comment\n2.5  # trailing\n\n")
    assert np.array_equal(fileio.read_float_lines(path), [1.5, 2.5])
    for entry in ("nope", "nan", "-inf"):
        path.write_text(f"1.5\n{entry}\n")
        with pytest.raises(ParseError) as e:
            fileio.read_float_lines(path)
        assert e.value.line == 2


def test_key_values_roundtrip(tmp_path):
    path = tmp_path / "kv.txt"
    fileio.write_key_values(path, {"a": 1, "b": "x"})
    assert fileio.read_key_values(path) == {"a": "1", "b": "x"}
    path.write_text("a=1\nnot a pair\n")
    with pytest.raises(ParseError):
        fileio.read_key_values(path)


def test_report_files(tmp_path):
    import json
    fileio.write_report(tmp_path / "r.txt", tmp_path / "r.json", {"fgd": 1.5, "n": 3})
    assert "fgd=1.5" in (tmp_path / "r.txt").read_text()
    assert json.loads((tmp_path / "r.json").read_text()) == {"fgd": 1.5, "n": 3}


# -- configuration ------------------------------------------------------


def test_config_defaults_and_presets():
    cfg = config.load_config(None, preset="toy")
    assert cfg["diffusion.steps"] == 50
    assert cfg["model.d"] == 64
    paper = config.load_config(None, preset="paper")
    assert paper["diffusion.steps"] == 1000
    assert paper["train.lr"] == pytest.approx(3e-5)
    assert paper["train.batch"] == 400


def test_config_file_layering(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("train.steps = 12\nmodel.use_conv = true\n# comment\n")
    cfg = config.load_config(p, preset="toy", overrides={"seed": 9})
    assert cfg["train.steps"] == 12
    assert cfg["model.use_conv"] is True
    assert cfg["seed"] == 9


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("train.stepz = 12\n")
    with pytest.raises(ConfigError):
        config.load_config(p)
    with pytest.raises(ConfigError):
        config.load_config(None, overrides={"nope": 1})
    with pytest.raises(ConfigError):
        config.load_config(None, preset="huge")
    with pytest.raises(ConfigError):
        config.load_config(tmp_path / "missing.cfg")


def test_config_type_coercion():
    cfg = config.load_config(None, overrides={"train.lr": "0.01", "model.layers": "3",
                                              "model.use_mamba": "false"})
    assert cfg["train.lr"] == 0.01
    assert cfg["model.layers"] == 3
    assert cfg["model.use_mamba"] is False
    with pytest.raises(ConfigError):
        config.load_config(None, overrides={"train.steps": "many"})
    with pytest.raises(ConfigError):
        config.load_config(None, overrides={"model.use_mamba": "perhaps"})


def test_config_errors_are_raised_only_where_an_input_enters():
    """Every rule on a config value lives in `load_config`. The only other
    `raise ConfigError`s are `cli._require` and the harness checks that need a corpus or a
    checkpoint, so no model code checks a value again."""
    raising = set()
    for path in Path(config.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(exc).split(".")[-1] == "ConfigError":
                raising.add(path.name)
    assert raising == {"config.py", "cli.py", "harness.py"}
