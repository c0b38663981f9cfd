import copy
import json
import os
import struct
import sys
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from dmtrl.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_network,
    save_checkpoint,
    save_network,
    write_atomic,
)
from dmtrl.cli import main, write_csv
from dmtrl.config import ConfigError, load_config, parse_config, spec_to_json
from dmtrl.network import SharingMode, build_network
from dmtrl.training import RandomDecompose

from conftest import five_mode_spec, set_factors


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        arrays = {
            "a.w": rng.normal(size=(3, 4)),
            "b.core": rng.normal(size=(2, 2, 2)),
            "z.bias": rng.normal(size=5),
        }
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, arrays)
        back = load_checkpoint(path)
        assert sorted(back) == sorted(arrays)
        for k in arrays:
            assert_array_equal(back[k], arrays[k])
        # identical bytes when written again
        path2 = tmp_path / "t2.ckpt"
        save_checkpoint(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_layout_starts_with_magic_and_version(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"x": np.zeros(2)})
        blob = path.read_bytes()
        assert blob[:4] == b"DMTL"
        assert struct.unpack_from("<II", blob, 4) == (1, 1)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"x": np.zeros(2)})
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_corruption_caught_by_crc(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"x": np.arange(4.0)})
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import zlib

        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"x": np.zeros(1)})
        blob = bytearray(path.read_bytes())[:-4]
        struct.pack_into("<I", blob, 4, 9)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @staticmethod
    def crafted(path, tensors, count=None):
        """A checkpoint of ``(name bytes, extents, values)`` entries as the
        header says, with a valid CRC32 over whatever it claims."""
        import zlib

        blob = b"DMTL" + struct.pack("<II", 1, len(tensors) if count is None else count)
        for name, shape, values in tensors:
            blob += struct.pack("<H", len(name)) + name + struct.pack("<B", len(shape))
            blob += struct.pack(f"<{len(shape)}Q", *shape) + np.asarray(values, "<f8").tobytes()
        path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF))
        return path

    def test_crafted_reader_accepts_a_well_formed_file(self, tmp_path):
        back = load_checkpoint(self.crafted(tmp_path / "t.ckpt", [(b"x", (2,), [1.0, 2.0])]))
        assert_array_equal(back["x"], [1.0, 2.0])

    def test_name_that_is_not_utf8_rejected(self, tmp_path):
        path = self.crafted(tmp_path / "t.ckpt", [(b"\xff\xfe", (1,), [0.0])])
        with pytest.raises(CheckpointError, match="not UTF-8"):
            load_checkpoint(path)

    def test_count_beyond_the_data_rejected(self, tmp_path):
        path = self.crafted(tmp_path / "t.ckpt", [(b"x", (1,), [0.0])], count=2)
        with pytest.raises(CheckpointError, match="truncated inside tensor 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [(2 ** 40, 2 ** 40), (0, 2 ** 63)],
                             ids=["product-overflows-int64", "empty-but-unindexable"])
    def test_extents_numpy_cannot_hold_rejected(self, tmp_path, shape):
        path = self.crafted(tmp_path / "t.ckpt", [(b"x", shape, [])])
        with pytest.raises(CheckpointError, match="tensor 'x'"):
            load_checkpoint(path)

    def test_name_stored_twice_rejected(self, tmp_path):
        path = self.crafted(tmp_path / "t.ckpt", [(b"x", (1,), [1.0]), (b"x", (1,), [2.0])])
        with pytest.raises(CheckpointError, match="'x' is stored twice"):
            load_checkpoint(path)

    def test_soft_network_round_trip(self, tmp_path, rng):
        from dmtrl.network import FC, Activation, LayerSpec, NetworkSpec

        spec = NetworkSpec(
            (6,),
            [LayerSpec(FC(6, 4), SharingMode.SOFT_TT),
             LayerSpec(Activation("relu")),
             LayerSpec(FC(4, 2), SharingMode.SOFT_LAF)],
            3,
        )
        net = build_network(spec, RandomDecompose(0.4), 21)
        path = tmp_path / "net.ckpt"
        save_network(path, net, extra={"method": "dmtrl-tt"})
        back, manifest = load_network(path)
        x = rng.normal(size=(5, 6))
        for t in range(3):
            assert_array_equal(back.forward(t, x), net.forward(t, x))
        assert manifest["method"] == "dmtrl-tt"
        assert "layer0.fc" in manifest["ranks"]


class TestLoadNetworkValidation:
    """A checkpoint pair loads only when its tensors are exactly what the
    manifest's spec describes."""

    def save_pair(self, tmp_path, mode):
        from dmtrl.network import FC, Activation, LayerSpec, NetworkSpec
        from dmtrl.training import PlainRandom

        spec = NetworkSpec(
            (6,),
            [LayerSpec(FC(6, 4), mode), LayerSpec(Activation("relu")),
             LayerSpec(FC(4, 1), SharingMode.INDEPENDENT)],
            2,
        )
        init = PlainRandom() if mode is SharingMode.INDEPENDENT else RandomDecompose(0.3)
        path = tmp_path / "net.ckpt"
        save_network(path, build_network(spec, init, 4))
        return path

    @pytest.mark.parametrize("mode", [SharingMode.INDEPENDENT, SharingMode.SOFT_TUCKER,
                                      SharingMode.SOFT_TT, SharingMode.SOFT_LAF])
    def test_manifest_declaring_other_widths_rejected(self, tmp_path, mode):
        path = self.save_pair(tmp_path, mode)
        mpath = tmp_path / "net.ckpt.manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["spec"]["layers"][0]["d_out"] = 5   # 6->4->1 stored, 6->5->1 declared
        manifest["spec"]["layers"][2]["d_in"] = 5
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            load_network(path)

    def test_missing_tensor_rejected(self, tmp_path):
        path = self.save_pair(tmp_path, SharingMode.SOFT_TUCKER)
        arrays = load_checkpoint(path)
        del arrays["layer0.fc.tucker.u1"]
        save_checkpoint(path, arrays)
        with pytest.raises(CheckpointError, match="tucker.u1"):
            load_network(path)

    def test_extra_tensor_rejected(self, tmp_path):
        path = self.save_pair(tmp_path, SharingMode.INDEPENDENT)
        arrays = load_checkpoint(path)
        arrays["layer0.fc.w9"] = np.zeros((6, 4))
        save_checkpoint(path, arrays)
        with pytest.raises(CheckpointError, match="w9"):
            load_network(path)

    @pytest.mark.parametrize("name", ["layer0.fc.b", "layer2.fc.b1", "layer8.fc.b2"],
                             ids=["tied", "soft", "independent"])
    def test_misshapen_bias_rejected(self, tmp_path, name):
        path = tmp_path / "net.ckpt"
        save_network(path, build_network(five_mode_spec([1, 3, 2]), RandomDecompose(0.3), 4))
        arrays = load_checkpoint(path)
        arrays[name] = np.zeros(len(arrays[name]) + 1)
        save_checkpoint(path, arrays)
        with pytest.raises(CheckpointError, match=name):
            load_network(path)

    def edit_manifest(self, path, edit):
        mpath = path.parent / (path.name + ".manifest.json")
        manifest = json.loads(mpath.read_text())
        edit(manifest)
        mpath.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("edit", [
        lambda m: m["spec"]["layers"][0].update(stride=1),            # extra key
        lambda m: m["spec"]["layers"][0].update(d_in=6.0),            # float width
        lambda m: m["spec"]["layers"][1].update(mode="soft_tt"),      # mode on relu
    ], ids=["extra_key", "float_field", "mode_on_relu"])
    def test_malformed_manifest_layer_rejected(self, tmp_path, edit):
        path = self.save_pair(tmp_path, SharingMode.SOFT_TUCKER)
        self.edit_manifest(path, edit)
        with pytest.raises(CheckpointError):
            load_network(path)

    @pytest.mark.parametrize("field, value", [
        ("input_shape", [6.7]),       # used to load as (6,)
        ("tasks", 2.0),
        ("head_dims", [1.0, True]),   # used to load as [1, 1]
    ])
    def test_manifest_shape_field_must_be_json_integer(self, tmp_path, field, value):
        path = self.save_pair(tmp_path, SharingMode.SOFT_TUCKER)
        self.edit_manifest(path, lambda m: m["spec"].update({field: value}))
        with pytest.raises(CheckpointError, match=field):
            load_network(path)

    @pytest.mark.parametrize("value", [True, 1.0, "1"], ids=["true", "float", "string"])
    def test_format_version_must_be_json_integer(self, tmp_path, value):
        path = self.save_pair(tmp_path, SharingMode.SOFT_TUCKER)
        self.edit_manifest(path, lambda m: m.update(format_version=value))
        with pytest.raises(CheckpointError, match="version"):
            load_network(path)

    @pytest.mark.parametrize("edit", [
        lambda m: m.update(ranks={}),
        lambda m: m["ranks"]["layer0.fc"].update(scheme="soft_tt"),
        lambda m: m["ranks"]["layer0.fc"]["ranks"].append(1),
    ], ids=["cleared", "wrong_scheme", "extra_rank"])
    def test_manifest_ranks_must_match_factors(self, tmp_path, edit):
        path = self.save_pair(tmp_path, SharingMode.SOFT_TUCKER)
        self.edit_manifest(path, edit)
        with pytest.raises(CheckpointError, match="ranks"):
            load_network(path)

    @pytest.mark.parametrize("text", ["[]", "{not json"], ids=["not_an_object", "not_json"])
    def test_malformed_manifest_json_rejected(self, tmp_path, text):
        path = self.save_pair(tmp_path, SharingMode.SOFT_TUCKER)
        (tmp_path / "net.ckpt.manifest.json").write_text(text)
        with pytest.raises(CheckpointError, match="manifest"):
            load_network(path)

    def test_manifest_records_the_checkpoint_crc32(self, tmp_path):
        path = self.save_pair(tmp_path, SharingMode.SOFT_TT)
        manifest = json.loads((tmp_path / "net.ckpt.manifest.json").read_text())
        assert manifest["checkpoint_crc32"] == struct.unpack("<I", path.read_bytes()[-4:])[0]

    def test_manifest_from_another_save_rejected(self, tmp_path):
        from dmtrl.network import FC, Activation, LayerSpec, NetworkSpec

        spec = NetworkSpec((6,), [LayerSpec(FC(6, 4), SharingMode.SOFT_TUCKER),
                                  LayerSpec(Activation("relu")),
                                  LayerSpec(FC(4, 1), SharingMode.INDEPENDENT)], 2)
        # the same architecture and ranks, other weights: every other check passes
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        save_network(first, build_network(spec, RandomDecompose(0.01), 4))
        save_network(second, build_network(spec, RandomDecompose(0.01), 5))
        os.replace(tmp_path / "second.ckpt.manifest.json", tmp_path / "first.ckpt.manifest.json")
        with pytest.raises(CheckpointError, match="different saves"):
            load_network(first)

    @pytest.mark.parametrize("value", [None, True, 1.0, "1"],
                             ids=["missing", "true", "float", "string"])
    def test_checkpoint_crc32_must_be_a_json_integer(self, tmp_path, value):
        path = self.save_pair(tmp_path, SharingMode.SOFT_TUCKER)

        def edit(m):
            crc = m.pop("checkpoint_crc32")
            if value is not None:  # the right number, as another JSON type
                m["checkpoint_crc32"] = value if value is True else type(value)(crc)

        self.edit_manifest(path, edit)
        with pytest.raises(CheckpointError, match="checkpoint_crc32"):
            load_network(path)

    @pytest.mark.parametrize("d_out", [2, 4])
    def test_head_d_out_other_than_the_widest_head_rejected(self, tmp_path, d_out):
        path = tmp_path / "net.ckpt"
        save_network(path, build_network(five_mode_spec([1, 3, 2]), RandomDecompose(0.3), 4))
        self.edit_manifest(path, lambda m: m["spec"]["layers"][8].update(d_out=d_out))
        with pytest.raises(CheckpointError, match=f"the head has d_out {d_out}"):
            load_network(path)

    def test_unedited_pair_still_loads(self, tmp_path):
        path = self.save_pair(tmp_path, SharingMode.SOFT_TT)
        net, _ = load_network(path)
        assert sorted(net.parameters()) == sorted(load_checkpoint(path))


MUTANTS = [None, 0, 1, 2, -1, 1.5, "x", True, [], {}] + [m.value for m in SharingMode]
DELETE = object()


def json_paths(node, path=()):
    """The path of every value below the root of a JSON tree."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def mutated(tree, path, value):
    """A copy of ``tree`` with the value at ``path`` replaced, or deleted."""
    out = copy.deepcopy(tree)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


class TestCheckpointBoundary:
    """A damaged pair saved from a network with all five sharing modes
    either loads as that network or raises CheckpointError."""

    def save_pair(self, tmp_path):
        net = build_network(five_mode_spec([1, 3, 2]), RandomDecompose(0.3), 5)
        path = tmp_path / "net.ckpt"
        save_network(path, net, extra={"method": "probe"})
        return path, net

    def test_every_single_field_mutation_loads_equal_or_raises(self, tmp_path):
        path, net = self.save_pair(tmp_path)
        mpath = tmp_path / "net.ckpt.manifest.json"
        manifest = json.loads(mpath.read_text())
        want = net.parameters()
        loaded = 0
        for where in json_paths(manifest):
            for value in MUTANTS + [DELETE]:
                mpath.write_text(json.dumps(mutated(manifest, where, value)))
                try:
                    back, _ = load_network(path)
                except CheckpointError:
                    continue
                loaded += 1
                assert spec_to_json(back.spec) == spec_to_json(net.spec), (where, value)
                got = back.parameters()
                assert sorted(got) == sorted(want), (where, value)
                for name in want:
                    assert_array_equal(got[name], want[name])
        assert loaded  # the unchecked "method" field loads whatever it holds

    def test_every_truncation_raises(self, tmp_path):
        path, _ = self.save_pair(tmp_path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                load_network(path)


class TestAtomicWrites:
    def test_failed_replace_keeps_previous_files(self, tmp_path, monkeypatch):
        path, csv_path = tmp_path / "net.ckpt", tmp_path / "results.csv"
        save_network(path, build_network(five_mode_spec(), RandomDecompose(0.3), 1))
        write_csv(csv_path, [("stl", 1.0, 0, "0", "binary_error", 0.5)])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="refused"):
            save_network(path, build_network(five_mode_spec(), RandomDecompose(0.3), 2))
        with pytest.raises(OSError, match="refused"):
            write_csv(csv_path, [("stl", 1.0, 0, "0", "binary_error", 0.25)])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_concurrent_writers_leave_one_whole_file(self, tmp_path):
        path = tmp_path / "out.json"
        payloads = [json.dumps({"writer": i, "pad": "x" * 20000}) for i in range(6)]
        errors = []

        def write_many(text):
            try:
                for _ in range(20):
                    write_atomic(path, text)
            except Exception as e:  # noqa: BLE001 - reported by the assertion below
                errors.append(e)

        threads = [threading.Thread(target=write_many, args=(p,)) for p in payloads]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_text() in payloads
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


BASE_CONFIG = {
    "tasks": 10,
    "input_shape": [28, 28, 1],
    "architecture": [
        {"kind": "conv", "h": 5, "w": 5, "in_ch": 1, "out_ch": 2},
        {"kind": "relu"},
        {"kind": "maxpool"},
        {"kind": "fc", "d_in": 288, "d_out": 1},
    ],
    "sharing": "dmtrl-tt",
    "init": {"policy": "random_decompose", "epsilon": 0.3},
    "train": {"epochs": 1, "batch_size": 16, "seed": 3, "lr": 0.01},
    "data": {"source": "synthetic_digits", "n_train": 80, "n_test": 40,
             "noise": 0.1, "jitter": 1},
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


ARCH_16 = [
    {"kind": "conv", "h": 5, "w": 5, "in_ch": 1, "out_ch": 2},
    {"kind": "relu"},
    {"kind": "maxpool"},
    {"kind": "fc", "d_in": 72, "d_out": 1},
]


def head_wide(arch, d_out):
    """``arch`` with its last layer, an fc, ``d_out`` wide."""
    return arch[:-1] + [{**arch[-1], "d_out": d_out}]


HETERO = {"source": "synthetic_heterogeneous", "n_train_per_task": 16, "n_test_per_task": 16}
# config overrides whose data does not fit the network, and the values the
# error names; the IDX case writes its files first
MISFITS = {
    "idx": (None, ["(16, 16, 1)", "(28, 28, 1)"]),
    "digits_16x16": ({"input_shape": [16, 16, 1], "architecture": ARCH_16},
                     ["(28, 28, 1)", "(16, 16, 1)"]),
    "hetero_28x28": ({"tasks": 2, "head_dims": [1, 8], "data": HETERO,
                      "architecture": head_wide(BASE_CONFIG["architecture"], 8)},
                     ["(16, 16, 1)", "(28, 28, 1)"]),
    "hetero_3_tasks": ({"tasks": 3, "input_shape": [16, 16, 1], "architecture": ARCH_16,
                        "data": HETERO}, ["holds 2 tasks", "has 3"]),
    "digits_5_tasks": ({"tasks": 5}, ["holds 10 tasks", "has 5"]),
    "digits_2_wide": ({"head_dims": [2] * 10,
                       "architecture": head_wide(BASE_CONFIG["architecture"], 2)},
                      ["width 2", "need 1"]),
    # without head_dims, every head is as wide as the last fc
    "digits_2_wide_fc": ({"architecture": head_wide(BASE_CONFIG["architecture"], 2)},
                         ["task 0", "width 2", "need 1"]),
    "hetero_1_wide_fc": ({"tasks": 2, "input_shape": [16, 16, 1], "architecture": ARCH_16,
                          "data": HETERO}, ["task 1", "width 1", "need 8"]),
}


class TestConfigParsing:
    def test_valid_config_parses(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.tasks == 10
        assert cfg.n_param_layers() == 2

    def test_unknown_field_named(self, tmp_path):
        path = write_config(tmp_path, {"typo_field": 1})
        with pytest.raises(ConfigError, match="typo_field"):
            load_config(path)

    def test_unknown_nested_field_named(self, tmp_path):
        path = write_config(tmp_path, {"train": {"epochs": 1, "learning": 0.1}})
        with pytest.raises(ConfigError, match="learning"):
            load_config(path)

    @pytest.mark.parametrize("override", [
        {"tasks": "x"},
        {"tasks": 0},
        {"input_shape": 6},
        {"head_dims": [1, "a"]},
        {"init": {"policy": "random_decompose", "epsilon": "x"}},
        {"fractions": 0.5},
        {"sharing": ["soft_tt", ["x"]]},
    ])
    def test_malformed_field_raises_config_error(self, override):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg.update(override)
        with pytest.raises(ConfigError, match=next(iter(override))):
            parse_config(cfg)

    @pytest.mark.parametrize("section, field, value", [
        ("data", "n_train", "x"),
        ("data", "n_test", 40.0),
        ("data", "jitter", -1),
        ("data", "class_seed", True),
        ("data", "noise", "0.1"),
        ("data", "noise", -0.1),
        ("train", "seed", "3"),
        ("train", "batch_size", 16.0),
        ("train", "epochs", True),
        ("train", "lr", "0.01"),
        ("train", "beta1", None),
    ])
    def test_data_and_train_values_checked(self, section, field, value):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg[section][field] = value
        with pytest.raises(ConfigError, match=f"'{field}' in {section}"):
            parse_config(cfg)

    @pytest.mark.parametrize("field, value", [
        ("adam_eps", 0), ("adam_eps", 0.0), ("beta1", 1.0), ("beta1", 2.0), ("beta2", 1),
        ("beta2", 1.5),
    ])
    def test_adam_settings_outside_their_range_rejected(self, field, value):
        """Adam needs 0 <= beta1, beta2 < 1 and adam_eps > 0; a value outside
        is refused when the config is read, not met as a non-finite loss or
        a silently different update."""
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["train"][field] = value
        with pytest.raises(ConfigError, match=f"bad train settings: Adam needs .*{value}"):
            parse_config(cfg)

    def test_idx_paths_must_be_strings(self):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["data"] = {"source": "idx", "train_images": "a", "train_labels": "b",
                       "test_images": "c", "test_labels": 4}
        with pytest.raises(ConfigError, match="test_labels"):
            parse_config(cfg)

    def test_heterogeneous_count_needs_one_instance_per_prototype(self):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["data"] = {"source": "synthetic_heterogeneous", "n_train_per_task": 7}
        with pytest.raises(ConfigError, match="n_train_per_task"):
            parse_config(cfg)

    @pytest.mark.parametrize("d_in", [288.9, 288.0, "288", True])
    def test_layer_width_must_be_json_integer(self, d_in):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["architecture"][3]["d_in"] = d_in
        with pytest.raises(ConfigError, match="d_in"):
            parse_config(cfg)

    def test_task_sampling_is_unknown(self, tmp_path):
        path = write_config(tmp_path, {"train": {"task_sampling": "round_robin"}})
        with pytest.raises(ConfigError, match="task_sampling"):
            load_config(path)

    def test_udmtl_out_of_range_mentions_sharing(self, tmp_path):
        path = write_config(tmp_path, {"sharing": "udmtl-9"})
        with pytest.raises(ConfigError, match="sharing"):
            load_config(path)

    def test_udmtl_expansion(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"sharing": "udmtl-1"}))
        spec = cfg.network_spec()
        assert spec.layers[0].mode is SharingMode.TIED
        assert spec.layers[3].mode is SharingMode.INDEPENDENT

    def test_stl_preset_expansion(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"sharing": "stl"}))
        assert all(
            ls.mode in (None, SharingMode.INDEPENDENT)
            for ls in cfg.network_spec().layers
        )

    def test_heterogeneous_preset_keeps_head_independent(self, tmp_path):
        path = write_config(tmp_path, {
            "tasks": 2,
            "head_dims": [2, 8],
            "architecture": [
                {"kind": "fc", "d_in": 36, "d_out": 8},
                {"kind": "relu"},
                {"kind": "fc", "d_in": 8, "d_out": 8},
            ],
            "input_shape": [6, 6, 1],
            "data": {"source": "synthetic_heterogeneous", "n_train_per_task": 64},
        })
        spec = load_config(path).network_spec()
        assert spec.layers[0].mode is SharingMode.SOFT_TT
        assert spec.layers[2].mode is SharingMode.INDEPENDENT

    @pytest.mark.parametrize("name", [{"not": "a string"}, 3, None, ["run"]])
    def test_name_must_be_a_string(self, name):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["name"] = name
        with pytest.raises(ConfigError, match="'name'"):
            parse_config(cfg)
        cfg["name"] = "table"
        parse_config(cfg)

    @pytest.mark.parametrize("sharing, presets", [
        ("stl", ["stl", "dmtrl-laf"]), ("dmtrl-tucker", None), (["independent", "soft_tt"], None),
    ])
    def test_plain_random_init_of_a_soft_preset_rejected(self, sharing, presets):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg.update(sharing=sharing, presets=presets, init={"policy": "plain_random"})
        with pytest.raises(ConfigError, match="field 'init'"):
            parse_config(cfg)
        cfg["init"] = {"policy": "random_decompose"}
        parse_config(cfg)

    @pytest.mark.parametrize("d_out", [1, 9])
    def test_head_d_out_must_be_the_widest_head(self, tmp_path, d_out):
        path = write_config(tmp_path, {
            "tasks": 2,
            "head_dims": [2, 8],
            "architecture": [
                {"kind": "fc", "d_in": 36, "d_out": 8},
                {"kind": "relu"},
                {"kind": "fc", "d_in": 8, "d_out": d_out},
            ],
            "input_shape": [6, 6, 1],
            "data": {"source": "synthetic_heterogeneous", "n_train_per_task": 64},
        })
        with pytest.raises(ConfigError, match=f"layer 2: the head has d_out {d_out}"):
            load_config(path)

    def test_head_dims_on_conv_head_rejected(self, tmp_path):
        path = write_config(tmp_path, {
            "tasks": 2,
            "head_dims": [1, 8],
            "sharing": "stl",
            "architecture": [{"kind": "conv", "h": 3, "w": 3, "in_ch": 1, "out_ch": 2}],
            "input_shape": [6, 6, 1],
        })
        with pytest.raises(ConfigError, match="layer 0: head_dims"):
            load_config(path)


# architectures whose output is not one vector per sample, and its shape
NOT_A_VECTOR = {
    "conv": ([{"kind": "conv", "h": 5, "w": 5, "in_ch": 1, "out_ch": 1}], "(24, 24, 1)"),
    "conv_relu_maxpool": (BASE_CONFIG["architecture"][:3], "(12, 12, 2)"),
}


class TestCliCommands:
    def run(self, *argv):
        return main(list(argv))

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("case", NOT_A_VECTOR)
    def test_architecture_without_a_vector_output_rejected(self, tmp_path, capsys,
                                                          command, case):
        """An architecture that ends in an image, not a vector, is refused
        at the config boundary, naming its output shape, and nothing is
        written."""
        arch, shape = NOT_A_VECTOR[case]
        cfg = write_config(tmp_path, {"architecture": arch})
        out = tmp_path / "x"
        capsys.readouterr()
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "architecture" in record["message"] and shape in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("threads", ["two", "0"])
    def test_thread_count_that_is_not_a_positive_integer_rejected(
            self, tmp_path, capsys, monkeypatch, command, threads):
        """``train`` and ``sweep`` both read DMTRL_THREADS, and a value that
        is not an integer >= 1 fails, naming the variable and the value,
        before any cell trains."""
        monkeypatch.setenv("DMTRL_THREADS", threads)
        cfg = write_config(tmp_path)
        out = tmp_path / "x"
        capsys.readouterr()
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "DMTRL_THREADS" in record["message"] and repr(threads) in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("overrides, stem", [
        ({"presets": [["independent", "soft_tt"], ["soft_tt", "independent"]]}, "custom_f1_r0"),
        ({"presets": ["stl", "stl"]}, "stl_f1_r0"),
        ({"fractions": [0.5, 0.5000001]}, "dmtrl-tt_f0.5_r0"),
        ({"presets": [["independent", "soft_tt"], ["soft_tt", "soft_tt"]],
          "fractions": [0.5, 0.5000001]}, "custom_f0.5_r0"),
    ], ids=["two-mode-lists", "repeated-preset", "fractions-printing-alike", "both"])
    def test_cells_that_would_write_the_same_files_rejected(
            self, tmp_path, capsys, monkeypatch, threads, command, overrides, stem):
        """Two cells of a grid whose file stems are equal (every mode list is
        labelled ``custom``, and fractions print with 6 digits) would
        overwrite each other's files, so the config is refused, naming the
        stem, and nothing is written."""
        monkeypatch.setenv("DMTRL_THREADS", threads)
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "x"
        capsys.readouterr()
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert f"'{stem}.*'" in record["message"]
        assert not out.exists()

    def test_train_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "runs"
        assert self.run("train", "--config", str(cfg), "--out", str(out)) == 0
        report = json.loads(capsys.readouterr().out)
        ckpt = report["runs"][0]["checkpoint"]
        assert (out / "dmtrl-tt_f1_r0.ckpt").exists()
        manifest = json.loads((out / "dmtrl-tt_f1_r0.ckpt.manifest.json").read_text())
        assert manifest["ranks"]  # per-layer ranks recorded
        assert (out / "dmtrl-tt_f1_r0.log.json").exists()

    def test_malformed_config_fails_with_error_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sharing": "udmtl-9"})
        rc = self.run("train", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert rc != 0
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "sharing" in record["message"]

    def test_eval_deterministic_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "runs"
        self.run("train", "--config", str(cfg), "--out", str(out))
        capsys.readouterr()
        data_file = tmp_path / "data.json"
        data_file.write_text(json.dumps(BASE_CONFIG["data"]))
        ckpt = str(out / "dmtrl-tt_f1_r0.ckpt")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self.run("eval", "--checkpoint", ckpt, "--data", str(data_file),
                        "--out", str(a)) == 0
        assert self.run("eval", "--checkpoint", ckpt, "--data", str(data_file),
                        "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "method,fraction,repeat,task,metric,value"

    def test_eval_data_file_values_checked(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "runs"
        self.run("train", "--config", str(cfg), "--out", str(out))
        capsys.readouterr()
        data_file = tmp_path / "data.json"
        data_file.write_text(json.dumps({**BASE_CONFIG["data"], "n_test": "x"}))
        rc = self.run("eval", "--checkpoint", str(out / "dmtrl-tt_f1_r0.ckpt"),
                      "--data", str(data_file), "--out", str(tmp_path / "r.csv"))
        assert rc != 0
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "n_test" in record["message"]

    @pytest.mark.parametrize("command, case", [
        pytest.param(command, case, id=command if case == "idx" else f"{command}-{case}")
        for case in MISFITS for command in ("train", "sweep", "eval")])
    def test_idx_images_checked_against_input_shape(self, tmp_path, capsys, monkeypatch,
                                                   command, case):
        """A corpus that does not fit the config's network (a 16x16 IDX
        corpus under a 28x28x1 config, synthetic images of the other size,
        another task count, a head its labels cannot use) fails with a
        ConfigError naming both values before any layer runs; a sweep
        writes no checkpoint."""
        import dmtrl.layers as layers_module
        from dmtrl.data import LabeledImages, write_idx
        from dmtrl.training import PlainRandom

        overrides, named = MISFITS[case]
        if case == "idx":
            rng = np.random.default_rng(0)
            paths = {}
            for split in ("train", "test"):
                paths[f"{split}_images"] = str(tmp_path / f"{split}-images.idx")
                paths[f"{split}_labels"] = str(tmp_path / f"{split}-labels.idx")
                write_idx(paths[f"{split}_images"], paths[f"{split}_labels"],
                          LabeledImages(rng.integers(0, 256, (40, 16, 16), dtype=np.uint8),
                                        np.arange(40) % 10, 10))
            overrides = {"data": {"source": "idx", **paths}}
        cfg = write_config(tmp_path, overrides)
        if command == "eval":  # a checkpoint of the config's network, scored on its data
            spec = load_config(cfg).network_spec("stl")
            save_network(tmp_path / "net.ckpt", build_network(spec, PlainRandom(), 0))
            argv = ["eval", "--checkpoint", str(tmp_path / "net.ckpt"),
                    "--data", str(cfg), "--out", str(tmp_path / "r.csv")]
        else:
            argv = [command, "--config", str(cfg), "--out", str(tmp_path / "x")]
        capsys.readouterr()
        layer_calls = []
        for name in ("conv2d_forward", "conv2d_patches", "fc_forward"):
            monkeypatch.setattr(layers_module, name, lambda *a, **k: layer_calls.append(a))
        assert self.run(*argv) != 0
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert all(value in record["message"] for value in named), record["message"]
        assert not layer_calls
        assert not list((tmp_path / "x").glob("*.ckpt"))

    def test_sweep_fits_the_test_split_before_any_cell_trains(self, tmp_path, capsys):
        """28x28 train and 16x16 test images: the sweep refuses the test
        split before its first cell trains, so it writes nothing."""
        from dmtrl.data import LabeledImages, write_idx

        rng = np.random.default_rng(0)
        paths = {}
        for split, side in (("train", 28), ("test", 16)):
            paths[f"{split}_images"] = str(tmp_path / f"{split}-images.idx")
            paths[f"{split}_labels"] = str(tmp_path / f"{split}-labels.idx")
            write_idx(paths[f"{split}_images"], paths[f"{split}_labels"],
                      LabeledImages(rng.integers(0, 256, (40, side, side), dtype=np.uint8),
                                    np.arange(40) % 10, 10))
        cfg = write_config(tmp_path, {"sharing": "stl", "data": {"source": "idx", **paths}})
        out = tmp_path / "x"
        capsys.readouterr()
        assert self.run("sweep", "--config", str(cfg), "--out", str(out)) != 0
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "(16, 16, 1)" in record["message"] and "(28, 28, 1)" in record["message"]
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("fault", [b"{not json", b'{"tasks": "\xff"}'],
                             ids=["not_json", "not_utf8"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unreadable_json_file_raises_config_error(self, tmp_path, capsys, command, fault):
        """A config or an ``eval --data`` file that is not UTF-8 JSON fails
        with a ConfigError naming the file."""
        from dmtrl.training import PlainRandom

        bad = tmp_path / "bad.json"
        bad.write_bytes(fault)
        if command == "eval":
            spec = load_config(write_config(tmp_path)).network_spec("stl")
            save_network(tmp_path / "net.ckpt", build_network(spec, PlainRandom(), 0))
            argv = ["eval", "--checkpoint", str(tmp_path / "net.ckpt"), "--data", str(bad),
                    "--out", str(tmp_path / "r.csv")]
        else:
            argv = ["train", "--config", str(bad), "--out", str(tmp_path / "x")]
        capsys.readouterr()
        assert self.run(*argv) != 0
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError", record
        assert str(bad) in record["message"]

    def test_eval_after_reload_matches(self, tmp_path, capsys):
        # training artifacts already verified; spot-check row content
        cfg = write_config(tmp_path)
        out = tmp_path / "runs"
        self.run("train", "--config", str(cfg), "--out", str(out))
        capsys.readouterr()
        data_file = tmp_path / "data.json"
        data_file.write_text(json.dumps({"data": BASE_CONFIG["data"]}))  # config form
        csv_path = tmp_path / "r.csv"
        self.run("eval", "--checkpoint", str(out / "dmtrl-tt_f1_r0.ckpt"),
                 "--data", str(data_file), "--out", str(csv_path))
        lines = csv_path.read_text().splitlines()
        per_task = [l for l in lines if ",binary_error," in l]
        assert len(per_task) == 10
        mean_row = [l for l in lines if "mean_binary_error" in l][0]
        vals = [float(l.rsplit(",", 1)[1]) for l in per_task]
        assert float(mean_row.rsplit(",", 1)[1]) == pytest.approx(np.mean(vals), rel=1e-12)

    def test_measure_endpoints(self, tmp_path, rng):
        from dmtrl.factorization import LAFFactors
        from dmtrl.network import FC, LayerSpec, MultiTaskNetwork, NetworkSpec

        spec = NetworkSpec((3,), [LayerSpec(FC(3, 2), SharingMode.SOFT_LAF)], 4)
        net = MultiTaskNetwork(spec)
        set_factors(net, 0, LAFFactors(rng.normal(size=(3, 2, 4)), np.eye(4)),
                    biases=[np.zeros(2)] * 4)
        ckpt = tmp_path / "one_hot.ckpt"
        save_network(ckpt, net, extra={"method": "probe"})
        out = tmp_path / "measure.json"
        assert self.run("measure", "--checkpoint", str(ckpt), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        # one-hot mixing measured as-is gives exactly zero sharing
        from dmtrl.analysis import sharing_strength

        assert sharing_strength(np.eye(4)) == 0.0
        assert report["layers"][0]["k"] == 4
        # the normalised learned matrix lands strictly inside (0, 1]
        assert 0.0 < report["layers"][0]["rho"] <= 1.0

    def test_measure_rejects_hard_checkpoints(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sharing": "stl",
                                      "init": {"policy": "plain_random"}})
        out = tmp_path / "runs"
        self.run("train", "--config", str(cfg), "--out", str(out))
        capsys.readouterr()
        rc = self.run("measure", "--checkpoint", str(out / "stl_f1_r0.ckpt"),
                      "--out", str(tmp_path / "m.json"))
        assert rc != 0

    def test_sweep_with_an_init_a_preset_cannot_use_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sharing": "stl", "presets": ["stl", "dmtrl-laf"],
                                      "init": {"policy": "plain_random"}})
        out = tmp_path / "sweep"
        out.mkdir()
        assert self.run("sweep", "--config", str(cfg), "--out", str(out)) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError" and "dmtrl-laf" in record["message"]
        assert list(out.iterdir()) == []

    def test_sweep_cell_generates_each_digit_pool_once(self, tmp_path, monkeypatch):
        import dmtrl.data as data_module

        calls = []
        real = data_module.synth_digits

        def counting(seed, n, **kw):
            calls.append(n)
            return real(seed, n, **kw)

        monkeypatch.setattr(data_module, "synth_digits", counting)
        cfg = write_config(tmp_path, {"sharing": "stl", "init": {"policy": "plain_random"}})
        assert self.run("sweep", "--config", str(cfg), "--out", str(tmp_path / "s")) == 0
        data = BASE_CONFIG["data"]
        assert sorted(calls) == sorted([data["n_train"], data["n_test"]])

    def test_sweep_grid_and_merged_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DMTRL_THREADS", "2")
        cfg = write_config(tmp_path, {
            "presets": ["stl", "udmtl-1", "dmtrl-laf"],
            "repeats": 2,
            "init": {"policy": "random_decompose", "epsilon": 0.3},
        })
        out = tmp_path / "sweep"
        assert self.run("sweep", "--config", str(cfg), "--out", str(out)) == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[0] == "method,fraction,repeat,task,metric,value"
        methods = {r.split(",")[0] for r in rows[1:]}
        assert methods == {"stl", "udmtl-1", "dmtrl-laf"}
        # 3 presets x 2 repeats x (4 per-task + 2 aggregate rows)
        assert len(rows) - 1 == 3 * 2 * 12
        sweep = json.loads((out / "sweep.json").read_text())
        assert len(sweep["cells"]) == 6


SHARED_SWEEP = {
    "presets": ["stl", "udmtl-1", "dmtrl-laf", "dmtrl-tucker", "dmtrl-tt"],
    "init": {"policy": "stl", "pretrain_epochs": 1, "epsilon": 0.3},
    "fractions": [0.5, 1.0],
    "repeats": 2,
}


class TestSweepSharesInputs:
    """A sweep computes each shared input once (the train pool, the test
    suite, one STL pretraining per (fraction, repeat)) and still writes what
    standalone runs write."""

    def sweep(self, tmp_path, monkeypatch, threads):
        import dmtrl.cli as cli
        import dmtrl.data as data_module

        calls = {"pretrain_stl": [], "synth_digits": []}
        for module, name in ((cli, "pretrain_stl"), (data_module, "synth_digits")):
            real = getattr(module, name)

            def counting(*args, _real=real, _log=calls[name], **kw):
                _log.append(args)
                return _real(*args, **kw)

            monkeypatch.setattr(module, name, counting)
        monkeypatch.setenv("DMTRL_THREADS", str(threads))
        cfg = write_config(tmp_path, SHARED_SWEEP)
        out = tmp_path / f"sweep{threads}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(calls["pretrain_stl"]) == 2 * 2   # once per (fraction, repeat)
        assert len(calls["synth_digits"]) == 2       # the train pool and the test suite
        return out

    @staticmethod
    def artifacts(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.name.endswith((".ckpt", ".manifest.json", "results.csv"))}

    def test_cells_equal_standalone_runs(self, tmp_path, monkeypatch, capsys):
        swept = self.artifacts(self.sweep(tmp_path, monkeypatch, 1))
        monkeypatch.undo()
        standalone = {}
        for preset in SHARED_SWEEP["presets"]:
            overrides = {k: v for k, v in SHARED_SWEEP.items() if k != "presets"}
            cfg = write_config(tmp_path, {**overrides, "sharing": preset}, f"{preset}.json")
            out = tmp_path / preset
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            standalone.update(self.artifacts(out))
        assert len(standalone) == 5 * 2 * 2 * 2   # .ckpt and manifest per cell
        assert standalone == {k: v for k, v in swept.items() if k != "results.csv"}
        logs = [json.loads(p.read_text()) for p in sorted((tmp_path / "sweep1").glob("*.log.json"))]
        marks = sorted(log.get("stl_pretrain", "none") for log in logs)
        assert marks == ["none"] * 8 + ["reused"] * 8 + ["trained"] * 4

    def test_thread_pool_writes_the_same_bytes(self, tmp_path, monkeypatch):
        one = self.artifacts(self.sweep(tmp_path, monkeypatch, 1))
        two = self.artifacts(self.sweep(tmp_path, monkeypatch, 2))
        assert "results.csv" in one and len(one) == 1 + 5 * 2 * 2 * 2
        assert one == two
        # train runs its (fraction, repeat) cells on the same thread pool
        overrides = {k: v for k, v in SHARED_SWEEP.items() if k != "presets"}
        cfg = write_config(tmp_path, {**overrides, "sharing": "dmtrl-tucker"}, "train.json")
        written = []
        for threads in (1, 2):
            monkeypatch.setenv("DMTRL_THREADS", str(threads))
            out = tmp_path / f"train{threads}"
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            logs = {p.name: json.loads(p.read_text())["records"] for p in out.glob("*.log.json")}
            written.append((self.artifacts(out), logs))
        assert len(written[0][0]) == 2 * 2 * 2 and len(written[0][1]) == 2 * 2
        assert written[0] == written[1]

    def test_once_value_computed_by_one_of_many_threads(self):
        """Eight threads ask one slow once-value at a fast switch interval: its
        ``make`` runs once, exactly one caller is told it computed the
        value, and every caller gets that value."""
        from dmtrl.cli import _Once

        calls, got = [], []
        once = _Once(lambda: time.sleep(0.01) or calls.append(None) or object())
        start = threading.Barrier(8)

        def ask():
            start.wait(timeout=60)
            got.append(once.get())

        threads = [threading.Thread(target=ask) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1 and len(got) == 8
        assert sum(made for _, made in got) == 1
        assert len({id(value) for value, _ in got}) == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_group_inputs_released(self, tmp_path, monkeypatch, threads):
        """A sweep holds one (fraction, repeat) group's STL network at a
        time: at every cell's start, at most one network that pretrain_stl
        returned is still reachable."""
        import gc
        import weakref

        import dmtrl.cli as cli

        pretrained, alive = [], []
        real_pretrain, real_cell = cli.pretrain_stl, cli.run_cell

        def pretrain(*args, **kw):
            net = real_pretrain(*args, **kw)
            pretrained.append(weakref.ref(net))
            return net

        def cell(*args, **kw):
            gc.collect()
            alive.append(sum(ref() is not None for ref in pretrained))
            return real_cell(*args, **kw)

        monkeypatch.setattr(cli, "pretrain_stl", pretrain)
        monkeypatch.setattr(cli, "run_cell", cell)
        monkeypatch.setenv("DMTRL_THREADS", str(threads))
        cfg = write_config(tmp_path, SHARED_SWEEP)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        assert len(pretrained) == 2 * 2 and len(alive) == 5 * 2 * 2
        assert max(alive) == 1, alive
