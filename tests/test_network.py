import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dmtrl.factorization import SCHEMES, LAFFactors, TTFactors, compose_tt, decompose
from dmtrl.layers import conv2d_forward, fc_forward, maxpool2_forward, relu_forward
from dmtrl.network import (
    EVAL_BLOCK,
    FC,
    Activation,
    Conv,
    LayerSpec,
    MaxPool,
    MultiTaskNetwork,
    NetworkSpec,
    SharingMode,
    _ConvPool,
    build_network,
    count_parameters,
)
from dmtrl.data import TaskDataset
from dmtrl.training import PlainRandom, RandomDecompose, TrainConfig, init_from_stl, train

from conftest import (
    assert_bits_equal,
    assert_gradients_bits_equal,
    assert_grads_close,
    central_difference,
    five_mode_spec,
    full_compose,
    named_gradients,
    set_factors,
    spec_order_backward,
    spec_order_forward,
)

I, T, LAF, TUK, TT = (SharingMode.INDEPENDENT, SharingMode.TIED,
                      SharingMode.SOFT_LAF, SharingMode.SOFT_TUCKER, SharingMode.SOFT_TT)


def vector_spec(mode_hidden, mode_head, tasks=3, d=6, hidden=4, out=2):
    return NetworkSpec(
        (d,),
        [LayerSpec(FC(d, hidden), mode_hidden),
         LayerSpec(Activation("tanh")),
         LayerSpec(FC(hidden, out), mode_head)],
        tasks,
    )


def conv_spec(mode, tasks=2):
    return NetworkSpec(
        (8, 8, 1),
        [LayerSpec(Conv(3, 3, 1, 2), mode),
         LayerSpec(Activation("relu")),
         LayerSpec(MaxPool()),
         LayerSpec(FC(18, 3), mode)],
        tasks,
    )


class TestSpecValidation:
    def test_single_task_independent_builds(self):
        net = build_network(vector_spec(I, I, tasks=1), PlainRandom(), 0)
        assert net.tasks == 1

    def test_shape_chain_violation(self):
        with pytest.raises(ValueError):
            NetworkSpec((5,), [LayerSpec(FC(6, 2), I)], 2)

    def test_conv_channel_mismatch(self):
        with pytest.raises(ValueError):
            NetworkSpec((8, 8, 3), [LayerSpec(Conv(3, 3, 1, 2), I),
                                    LayerSpec(FC(72, 2), I)], 2)

    def test_heterogeneous_head_must_be_independent(self):
        with pytest.raises(ValueError, match="need an Independent head"):
            NetworkSpec((4,), [LayerSpec(FC(4, 8), LAF)], 2, head_dims=[2, 8])

    def test_heterogeneous_head_independent_ok(self):
        spec = NetworkSpec(
            (4,),
            [LayerSpec(FC(4, 3), LAF), LayerSpec(FC(3, 8), I)],
            2,
            head_dims=[2, 8],
        )
        net = build_network(spec, RandomDecompose(0.1), 1)
        assert net.forward(0, np.zeros((3, 4))).shape == (3, 2)
        assert net.forward(1, np.zeros((3, 4))).shape == (3, 8)

    def test_missing_mode_on_param_layer(self):
        with pytest.raises(ValueError):
            NetworkSpec((4,), [LayerSpec(FC(4, 2))], 2)

    @pytest.mark.parametrize("head_dims", [[1, 8], [2, 2]])
    def test_head_dims_need_an_fc_head(self, head_dims):
        with pytest.raises(ValueError, match="layer 0: head_dims"):
            NetworkSpec((6, 6, 1), [LayerSpec(Conv(3, 3, 1, 2), I)], 2, head_dims=head_dims)

    @pytest.mark.parametrize("head_dims", [[0, 2], [-1, 2], [2.5, 2], [2.0, 2], [True, 2],
                                           ["2", 2], [None, 2]])
    def test_head_widths_must_be_integers_at_least_one(self, head_dims):
        with pytest.raises(ValueError, match="head_dims must be integers >= 1"):
            NetworkSpec((4,), [LayerSpec(FC(4, 3), I)], 2, head_dims=head_dims)

    def test_numpy_integer_head_widths_kept_as_ints(self):
        spec = NetworkSpec((4,), [LayerSpec(FC(4, 8), I)], 2, head_dims=np.array([1, 8]))
        assert spec.head_dims == [1, 8] and all(type(d) is int for d in spec.head_dims)

    @pytest.mark.parametrize("d_out", [1, 3, 9])
    def test_head_d_out_must_be_the_widest_head(self, d_out):
        with pytest.raises(ValueError, match=f"layer 0: the head has d_out {d_out}"):
            NetworkSpec((4,), [LayerSpec(FC(4, d_out), I)], 2, head_dims=[3, 5])

    def test_head_width_from_head_dims_else_the_head(self):
        spec = NetworkSpec((4,), [LayerSpec(FC(4, 5), I)], 2, head_dims=[3, 5])
        assert [spec.head_width(t) for t in range(2)] == [3, 5]
        spec = NetworkSpec((4,), [LayerSpec(FC(4, 5), I), LayerSpec(Activation("tanh"))], 2)
        assert [spec.head_width(t) for t in range(2)] == [5, 5]

    def test_layer_that_is_not_a_kind_named(self):
        with pytest.raises(ValueError, match="layer 1: 'fc' is not a layer kind"):
            NetworkSpec((4,), [LayerSpec(FC(4, 4), I), LayerSpec("fc", I)], 1)


KIND_CASES = {  # a kind and the shape of one sample it takes
    "fc": (FC(6, 4), (6,)),
    "fc-folded": (FC(72, 3), (6, 6, 2)),
    "conv": (Conv(3, 2, 2, 5), (7, 6, 2)),                 # row-major patches
    "conv-kernel-major": (Conv(3, 3, 1, 4), (7, 6, 1)),    # one input channel
    "pool-even": (MaxPool(), (6, 8, 3)),
    "pool-odd": (MaxPool(), (7, 5, 2)),
    "conv-pool": (_ConvPool(3, 2, 2, 5), (7, 6, 2)),       # a plan-only step: 5x5 pooled
    "conv-pool-kernel-major": (_ConvPool(3, 3, 1, 4), (8, 7, 1)),
    "relu": (Activation("relu"), (4, 5, 2)),
    "tanh": (Activation("tanh"), (3,)),
}


class TestLayerKinds:
    """The kind contract: ``out_shape`` agrees with ``forward``, ``take``
    with a forward pass on the rows taken, and a network reaches the
    primitives through ``dmtrl.layers`` at call time."""

    @pytest.mark.parametrize("kind, shape", list(KIND_CASES.values()), ids=list(KIND_CASES))
    def test_out_shape_matches_forward(self, rng, kind, shape):
        x = rng.normal(size=(3, *shape))
        params = ()
        if kind.parametrised:
            w_shape = kind.weight_shape()
            params = (rng.normal(size=w_shape), rng.normal(size=w_shape[-1]))
        out, cache = kind.forward(x, *params)
        assert out.shape == (3, *kind.out_shape(shape))
        g, *grads = kind.backward(np.ones_like(out), cache, need_grad_x=True)
        assert g.shape == x.shape
        assert [a.shape for a in grads] == [p.shape for p in params]

    @pytest.mark.parametrize("rows", [[0, 2, 3], [4]], ids=["some", "one"])
    @pytest.mark.parametrize("kind, shape", list(KIND_CASES.values()), ids=list(KIND_CASES))
    def test_take_is_the_cache_of_a_forward_on_those_rows(self, rng, kind, shape, rows):
        x = rng.normal(size=(5, *shape))
        params = ()
        if kind.parametrised:
            w_shape = kind.weight_shape()
            params = (rng.normal(size=w_shape), rng.normal(size=w_shape[-1]))

        def assert_same(got, want):
            if isinstance(want, np.ndarray):
                assert_array_equal(got, want)
                assert got.shape == want.shape
                assert got.flags.c_contiguous == want.flags.c_contiguous  # same layout
            elif isinstance(want, tuple):
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert_same(a, b)
            else:
                assert got == want

        assert_same(kind.take(kind.forward(x, *params)[1], np.array(rows, dtype=np.intp), {}),
                    kind.forward(x[rows], *params)[1])

    def test_network_calls_primitives_through_layers_module(self, rng, monkeypatch):
        import dmtrl.layers as layers_module

        calls = []
        for name in ("conv2d_forward", "fc_forward", "maxpool2_forward", "relu_forward",
                     "conv2d_backward", "fc_backward", "maxpool2_backward", "relu_backward"):
            def counting(*args, _name=name, _real=getattr(layers_module, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(layers_module, name, counting)
        net = build_network(conv_spec(TUK), RandomDecompose(0.3), 5)
        x = rng.normal(size=(2, 8, 8, 1))
        # the spec's relu, maxpool runs as maxpool, relu
        forward = ["conv2d_forward", "maxpool2_forward", "relu_forward", "fc_forward"]
        net.predict_tasks(x, [0])
        assert calls == forward
        out = net.forward(0, x)
        assert calls == forward * 2
        net.backward(0, np.ones_like(out))
        assert calls == forward * 2 + [
            "fc_backward", "relu_backward", "maxpool2_backward", "conv2d_backward"]


class TestPredictTasks:
    """One depth-first walk scores several tasks exactly as per-task
    ``forward`` calls do, and runs shared work once per group."""

    @pytest.mark.parametrize("head_dims", [None, [2, 1, 3]], ids=["equal", "heterogeneous"])
    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 2 * EVAL_BLOCK + 1])
    def test_bit_equal_to_predict(self, rng, head_dims, rows):
        """Each ``EVAL_BLOCK``-row block gives the bits of ``forward`` on
        that block."""
        net = build_network(five_mode_spec(head_dims), RandomDecompose(0.3), 2)
        x = rng.normal(size=(rows, 6))
        for tasks in ([0, 1, 2], [2, 0]):
            got = net.predict_tasks(x, tasks)
            assert len(got) == len(tasks)
            for t, out in zip(tasks, got):
                assert_bits_equal(out, np.concatenate(
                    [net.forward(t, x[lo : lo + EVAL_BLOCK])
                     for lo in range(0, rows, EVAL_BLOCK)]))

    def test_composes_each_slice_once_per_call(self, rng, monkeypatch):
        """However many blocks the rows make, one call composes each soft
        slice its tasks read once."""
        import dmtrl.network as network_module

        calls, real = [], network_module.compose_task

        def counting(f, task):
            calls.append(task)
            return real(f, task)

        monkeypatch.setattr(network_module, "compose_task", counting)
        net = build_network(conv_spec(TUK, tasks=4), RandomDecompose(0.3), 5)
        out = net.predict_tasks(rng.normal(size=(2 * EVAL_BLOCK + 1, 8, 8, 1)), [3, 0, 2])
        assert [len(a) for a in out] == [2 * EVAL_BLOCK + 1] * 3
        assert sorted(calls) == [0, 0, 2, 2, 3, 3]  # two soft layers

    @staticmethod
    def _count_layer_calls(monkeypatch):
        import dmtrl.layers as layers_module

        calls = {}
        for name in ("conv2d_patches", "conv2d_forward", "relu_forward",
                     "maxpool2_forward", "fc_forward"):
            def counting(*args, _name=name, _real=getattr(layers_module, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(layers_module, name, counting)
        return calls

    @staticmethod
    def _suite(rng, n):
        from dmtrl.data import LabeledImages, make_suite

        images = rng.integers(0, 256, (n, 8, 8), dtype=np.uint8)
        return make_suite(LabeledImages(images, rng.integers(0, 3, n), 3))

    @pytest.mark.parametrize("rows, blocks", [(40, 1), (100, 2)])
    def test_independent_first_conv_builds_patches_once_per_block(
            self, rng, monkeypatch, rows, blocks):
        from dmtrl.training import evaluate_suite

        net = build_network(conv_spec(I, tasks=3), PlainRandom(), 4)
        suite = self._suite(rng, rows)
        calls = self._count_layer_calls(monkeypatch)
        evaluate_suite(net, suite)
        assert calls == {"conv2d_patches": blocks, "conv2d_forward": 3 * blocks,
                         "relu_forward": 3 * blocks, "maxpool2_forward": 3 * blocks,
                         "fc_forward": 3 * blocks}

    def test_tied_trunk_runs_once_per_block(self, rng, monkeypatch):
        from dmtrl.training import evaluate_suite

        spec = NetworkSpec((8, 8, 1), [LayerSpec(Conv(3, 3, 1, 2), T),
                                       LayerSpec(Activation("relu")),
                                       LayerSpec(MaxPool()),
                                       LayerSpec(FC(18, 1), I)], 3)
        net = build_network(spec, PlainRandom(), 4)
        suite = self._suite(rng, 40)
        calls = self._count_layer_calls(monkeypatch)
        got = evaluate_suite(net, suite)
        assert calls == {"conv2d_patches": 1, "conv2d_forward": 1, "relu_forward": 1,
                         "maxpool2_forward": 1, "fc_forward": 3}
        inputs = suite.source.float_inputs()
        scores = np.column_stack([net.forward(t, inputs)[:, 0] for t in range(3)])
        assert got["multiclass"] == float(np.mean(scores.argmax(1) != suite.source.labels))


class TestBuild:
    def test_tied_except_head(self):
        spec = vector_spec(T, I)
        net = build_network(spec, PlainRandom(), 3)
        x = np.random.default_rng(0).normal(size=(5, 6))
        # tied trunk plus identically initialised heads: outputs coincide
        assert_allclose(net.forward(0, x), net.forward(1, x), rtol=1e-15)

    def test_plain_random_rejects_soft_layers(self):
        with pytest.raises(ValueError):
            build_network(vector_spec(LAF, I), PlainRandom(), 0)

    def test_soft_tt_composed_shape(self):
        spec = NetworkSpec((6,), [LayerSpec(FC(6, 4), TT)], 3)
        net = MultiTaskNetwork(spec)
        f = TTFactors(np.random.default_rng(0).normal(size=(6, 2)),
                      [np.random.default_rng(1).normal(size=(2, 4, 2))],
                      np.random.default_rng(2).normal(size=(2, 3)))
        set_factors(net, 0, f, biases=[np.zeros(4)] * 3)
        assert full_compose(net.layer_state(0).factors).shape == (6, 4, 3)

    def test_build_deterministic(self):
        a = build_network(conv_spec(TUK), RandomDecompose(0.2), 9)
        b = build_network(conv_spec(TUK), RandomDecompose(0.2), 9)
        for (na, pa), (nb, pb) in zip(a.parameters().items(), b.parameters().items()):
            assert na == nb
            assert_array_equal(pa, pb)

    def test_independent_tasks_start_identical(self):
        net = build_network(vector_spec(I, I), PlainRandom(), 5)
        l0 = net.layer_state(0)
        assert_array_equal(l0.weights[0], l0.weights[1])


def layer_name(spec, i):
    return f"layer{i}.{'fc' if isinstance(spec.layers[i].kind, FC) else 'conv'}"


def task_shapes(spec, i):
    kind = spec.layers[i].kind
    if isinstance(kind, Conv):
        return [(kind.h, kind.w, kind.in_ch, kind.out_ch)] * spec.tasks
    head = i == spec.parametrised_indices()[-1] and spec.head_dims is not None
    return [(kind.d_in, spec.head_dims[t] if head else kind.d_out) for t in range(spec.tasks)]


def install_oracle(spec, i, weights, biases, epsilon):
    """Named parameters of layer ``i`` installed from per-task weights and
    biases: the mean for tied, copies for independent, the factors of the
    stack for a soft mode."""
    name, mode = layer_name(spec, i), spec.layers[i].mode
    if mode is T:
        return {f"{name}.w": np.mean(weights, axis=0), f"{name}.b": np.mean(biases, axis=0)}
    out = {}
    if mode is I:
        out.update({f"{name}.w{t}": w for t, w in enumerate(weights)})
    else:
        tag = mode.value.removeprefix("soft_")
        f = decompose(tag, np.stack(weights, axis=-1), epsilon)
        out.update({f"{name}.{n}": a for n, a in SCHEMES[tag].items(f)})
    out.update({f"{name}.b{t}": b for t, b in enumerate(biases)})
    return out


def build_oracle(spec, epsilon, seed):
    """Parameters ``build_network`` must produce: fan-scaled uniform draws
    from one generator in layer order; tied takes one draw, independent one
    draw copied per task (one draw per task when head widths differ), a soft
    mode one draw per task, stacked and factorised."""
    rng = np.random.default_rng(seed)
    want = {}
    for i in spec.parametrised_indices():
        kind, mode, shapes = spec.layers[i].kind, spec.layers[i].mode, task_shapes(spec, i)
        fan = kind.d_in + kind.d_out if isinstance(kind, FC) else \
            kind.h * kind.w * (kind.in_ch + kind.out_ch)
        bound = np.sqrt(6.0 / fan)
        if mode is T:
            name = layer_name(spec, i)
            want[f"{name}.w"] = rng.uniform(-bound, bound, size=shapes[0])
            want[f"{name}.b"] = np.zeros(shapes[0][-1])
            continue
        if mode is I and len(set(shapes)) == 1:
            weights = [rng.uniform(-bound, bound, size=shapes[0])] * spec.tasks
        else:
            weights = [rng.uniform(-bound, bound, size=s) for s in shapes]
        biases = [np.zeros(s[-1]) for s in shapes]
        want.update(install_oracle(spec, i, weights, biases, epsilon))
    return want


def assert_same_parameters(got, want):
    assert list(got) == list(want)
    for name in want:
        assert_array_equal(got[name], want[name], err_msg=name)


class TestStorageRows:
    """Every sharing mode against an oracle that replays its draws and
    installs its weights without the network's parameter-layer classes."""

    @pytest.mark.parametrize("head_dims", [None, [1, 3, 2]], ids=["equal", "heterogeneous"])
    def test_build_network_replays_draws(self, head_dims):
        spec = five_mode_spec(head_dims)
        net = build_network(spec, RandomDecompose(0.2), 13)
        assert_same_parameters(net.parameters(), build_oracle(spec, 0.2, 13))

    @pytest.mark.parametrize("mode", [T, I, LAF, TUK, TT])
    def test_build_network_replays_conv_draws(self, mode):
        spec = conv_spec(mode, tasks=3)
        net = build_network(spec, RandomDecompose(0.2), 14)
        assert_same_parameters(net.parameters(), build_oracle(spec, 0.2, 14))

    def test_plain_random_replays_dense_draws(self):
        spec = vector_spec(T, I)
        net = build_network(spec, PlainRandom(), 15)
        assert_same_parameters(net.parameters(), build_oracle(spec, None, 15))

    @pytest.mark.parametrize("head_dims", [None, [1, 3, 2]], ids=["equal", "heterogeneous"])
    def test_init_from_stl_installs_per_mode(self, head_dims, rng):
        spec = five_mode_spec(head_dims)
        stl_spec = NetworkSpec(spec.input_shape,
                               [LayerSpec(ls.kind, I if ls.mode else None) for ls in spec.layers],
                               spec.tasks, head_dims)
        stl = build_network(stl_spec, PlainRandom(), 16)
        for p in stl.parameters().values():
            p += rng.normal(scale=0.1, size=p.shape)  # tasks and biases differ
        stl_params = stl.parameters()
        net = init_from_stl(stl, spec, 0.2)
        want = {}
        for i in spec.parametrised_indices():
            name = layer_name(spec, i)
            weights = [stl_params[f"{name}.w{t}"] for t in range(spec.tasks)]
            biases = [stl_params[f"{name}.b{t}"] for t in range(spec.tasks)]
            want.update(install_oracle(spec, i, weights, biases, 0.2))
        got = net.parameters()
        assert_same_parameters(got, want)
        for name, a in got.items():  # installed by copy, never aliasing the source
            assert not any(np.shares_memory(a, p) for p in stl_params.values()), name

    def test_independent_slots_do_not_alias(self):
        net = build_network(vector_spec(I, I), PlainRandom(), 17)
        params = net.parameters()
        assert not np.shares_memory(params["layer0.fc.w0"], params["layer0.fc.w1"])


class TestForward:
    def test_laf_identity_mixing_equals_independent(self, rng):
        tasks = 3
        spec = NetworkSpec((5,), [LayerSpec(FC(5, 2), LAF)], tasks)
        net = MultiTaskNetwork(spec)
        l = rng.normal(size=(5, 2, tasks))
        set_factors(net, 0, LAFFactors(l, np.eye(tasks)),
                    biases=[np.zeros(2)] * tasks)
        x = rng.normal(size=(4, 5))
        for t in range(tasks):
            assert_allclose(net.forward(t, x), x @ l[:, :, t], rtol=1e-12)

    def test_matches_compose_then_run_oracle(self, rng):
        net = build_network(conv_spec(TT), RandomDecompose(0.3), 7)
        x = rng.normal(size=(2, 8, 8, 1))
        conv_w = compose_tt(net.layer_state(0).factors)
        fc_w = compose_tt(net.layer_state(3).factors)
        for t in range(net.tasks):
            h, _ = conv2d_forward(x, np.ascontiguousarray(conv_w[..., t]),
                                  net.layer_state(0).biases[t])
            h, _ = relu_forward(h)
            h, _ = maxpool2_forward(h)
            h, _ = fc_forward(h.reshape(2, -1), np.ascontiguousarray(fc_w[..., t]),
                              net.layer_state(3).biases[t])
            got = net.forward(t, x)
            assert np.max(np.abs(got - h)) <= 1e-12

    def test_task_out_of_range(self):
        net = build_network(vector_spec(I, I), PlainRandom(), 0)
        with pytest.raises(ValueError):
            net.forward(5, np.zeros((1, 6)))


    @pytest.mark.parametrize("mode", [I, T, LAF, TUK, TT])
    def test_predict_bit_equal_to_forward(self, rng, mode):
        init = PlainRandom() if mode in (I, T) else RandomDecompose(0.3)
        net = build_network(conv_spec(mode, tasks=3), init, 5)
        x = rng.normal(size=(4, 8, 8, 1))
        for t in range(net.tasks):
            assert_array_equal(net.predict_tasks(x, [t])[0], net.forward(t, x))

    def test_backward_after_predict_raises(self, rng):
        net = build_network(conv_spec(TUK), RandomDecompose(0.3), 5)
        out = net.predict_tasks(rng.normal(size=(2, 8, 8, 1)), [0])[0]
        with pytest.raises(RuntimeError):
            net.backward(0, np.ones_like(out))

    def test_step_composes_only_the_task_slice(self, rng, monkeypatch):
        """A forward composes the task's slice of each soft layer once, and
        backward and ``gradients`` compose none; each call composes anew."""
        import dmtrl.factorization as factorization_module
        import dmtrl.network as network_module

        calls, composed = [], []
        real, real_tucker = network_module.compose_task, factorization_module.compose_tucker

        def counting(f, task):
            calls.append(task)
            return real(f, task)

        def recording(f):
            composed.append(f.out_shape)
            return real_tucker(f)

        monkeypatch.setattr(network_module, "compose_task", counting)
        monkeypatch.setattr(factorization_module, "compose_tucker", recording)
        net = build_network(conv_spec(TUK, tasks=4), RandomDecompose(0.3), 5)
        x = rng.normal(size=(2, 8, 8, 1))
        out = net.forward(2, x)
        net.backward(2, np.ones_like(out))
        net.gradients()
        assert calls == [2, 2]  # one slice per soft layer
        # every composition built one slice, never the stacked tensor
        slices = [net.layer_state(i).stacked_shape[:-1] for i in net.param_layers]
        assert composed == slices
        net.predict_tasks(x, [2])
        net.forward(2, x)
        assert calls == [2, 2] * 3

    @pytest.mark.parametrize("mode", [LAF, TUK, TT])
    def test_in_place_write_seen_by_the_next_pass(self, rng, mode):
        """A write through ``parameters()`` is seen by the next ``forward``
        and ``predict_tasks``, with no other call between."""
        nets = [build_network(conv_spec(mode, tasks=3), RandomDecompose(0.3), 5)
                for _ in range(2)]
        x = rng.normal(size=(4, 8, 8, 1))
        nets[0].forward(1, x)
        nets[0].predict_tasks(x, [0, 1, 2])
        for net in nets:  # the second network has run no pass yet
            for name, p in net.parameters().items():
                p *= 1.5
                p += 0.25
        assert_bits_equal(nets[0].forward(1, x), nets[1].forward(1, x))
        for got, want in zip(nets[0].predict_tasks(x, [0, 1, 2]),
                             nets[1].predict_tasks(x, [0, 1, 2])):
            assert_bits_equal(got, want)


class TestBackward:
    def test_requires_forward(self):
        net = build_network(vector_spec(I, I), PlainRandom(), 0)
        with pytest.raises(RuntimeError):
            net.backward(0, np.zeros((1, 2)))

    def test_zero_loss_gradient_gives_zero_gradients(self, rng):
        net = build_network(vector_spec(T, I), PlainRandom(), 0)
        out = net.forward(1, rng.normal(size=(3, 6)))
        net.backward(1, np.zeros_like(out))
        for name, g in net.gradients().items():
            assert not g.any(), name

    def test_soft_gradients_zero_before_any_backward(self):
        net = build_network(vector_spec(TT, LAF), RandomDecompose(0.3), 2)
        grads = net.gradients()
        for name, p in net.parameters().items():
            assert grads[name].shape == p.shape
            assert not grads[name].any(), name

    def test_second_backward_replaces_the_first(self, rng):
        """``gradients`` holds the last pass only: task 0's pass leaves
        nothing behind once task 1's has run."""
        spec = vector_spec(LAF, I, tasks=2)
        x = rng.normal(size=(3, 6))
        g_out = rng.normal(size=(3, 2))

        def grads_after(tasks):
            net = build_network(spec, RandomDecompose(0.5), 11)
            for t in tasks:
                net.forward(t, x)
                net.backward(t, g_out)
            return net.gradients()

        got, want = grads_after([0, 1]), grads_after([1])
        assert list(got) == list(want)
        for name in want:
            assert_bits_equal(got[name], want[name], name)
        assert not got["layer2.fc.w0"].any() and not got["layer0.fc.b0"].any()

    def test_forward_drops_the_last_pass_gradients(self, rng):
        net = build_network(vector_spec(LAF, I, tasks=2), RandomDecompose(0.5), 11)
        x = rng.normal(size=(3, 6))
        net.forward(0, x)
        net.backward(0, rng.normal(size=(3, 2)))
        assert any(g.any() for g in net.gradients().values())
        net.forward(0, x)
        assert not any(g.any() for g in net.gradients().values())

    def test_end_to_end_soft_tucker_gradient(self, rng):
        spec = NetworkSpec(
            (4,),
            [LayerSpec(FC(4, 3), TUK),
             LayerSpec(Activation("tanh")),
             LayerSpec(FC(3, 2), TUK)],
            2,
        )
        net = build_network(spec, RandomDecompose(0.4), 13)
        x = rng.normal(size=(3, 4))
        co = rng.normal(size=(3, 2))
        task = 1

        def loss():
            return float(np.sum(net.forward(task, x) * co))

        net.forward(task, x)
        net.backward(task, co)
        grads = net.gradients()
        for name, p in net.parameters().items():
            num = central_difference(loss, p)
            assert_grads_close(grads[name], num, rtol=1e-5, atol=1e-7)


def all_conv_spec(tasks=3):
    """Convolutions on both patch layouts (1 and 2 input channels) behind a
    leading activation, so the network returns an input gradient."""
    return NetworkSpec(
        (8, 8, 1),
        [LayerSpec(Activation("tanh")),
         LayerSpec(Conv(3, 3, 1, 2), TUK),
         LayerSpec(Activation("relu")),
         LayerSpec(MaxPool()),
         LayerSpec(Conv(3, 3, 2, 3), I)],
        tasks,
    )


def dense_backward(net, task, grad_out):
    """The input gradient and the named gradients (:func:`named_gradients`)
    of the backward pass over every row of the batch: each layer's backward
    on the whole recorded cache, zero rows included."""
    tape_task, tape = net._tape
    assert tape_task == task
    net._tape = None
    g, grads = grad_out, {}
    for pos in reversed(range(len(tape))):
        kind, layer, cache = tape[pos]
        g, *param_grads = kind.backward(g, cache, need_grad_x=pos > 0)
        if layer is not None:
            grads[layer.index] = param_grads
    return g, named_gradients(net, task, grads)


ACTIVE = {  # which of 6 samples carry gradient
    "zero-start": [0, 0, 1, 1, 1, 1],
    "zero-middle": [1, 1, 0, 0, 1, 1],
    "zero-end": [1, 1, 1, 1, 0, 0],
    "one-active": [0, 0, 0, 1, 0, 0],
    "none-active": [0, 0, 0, 0, 0, 0],
}


class TestTape:
    """``forward`` records each layer's input, never a matrix derived from
    it: backward rebuilds patch rows and pool winners for the rows it runs."""

    @staticmethod
    def _tape_bytes(net) -> int:
        """Distinct bytes the tape keeps alive: every cached array's base,
        counted once however many entries hold it or a view of it."""
        roots, todo = {}, [cache for _, _, cache in net._tape[1]]
        while todo:
            a = todo.pop()
            if isinstance(a, tuple):
                todo.extend(a)
            elif isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                roots[id(a)] = a.nbytes
        return sum(roots.values())

    @pytest.mark.parametrize("mode, init", [(I, PlainRandom()), (TUK, RandomDecompose(0.1))],
                             ids=["independent", "tucker"])
    def test_demo04_tape_holds_inputs_not_patch_matrices(self, rng, mode, init):
        # conv5-8 / pool / conv4-16 / pool / fc256-64 / fc64-1 at batch 64:
        # the first conv's patch matrix alone is 7.03 MiB, and a tape of
        # patch matrices and winner codes held 15.39 MiB
        kinds = [Conv(5, 5, 1, 8), Activation("relu"), MaxPool(),
                 Conv(4, 4, 8, 16), Activation("relu"), MaxPool(),
                 FC(256, 64), Activation("relu"), FC(64, 1)]
        spec = NetworkSpec((28, 28, 1), [LayerSpec(k, mode if k.parametrised else None)
                                         for k in kinds], 10)
        net = build_network(spec, init, 0)
        net.forward(3, rng.random((64, 28, 28, 1)))
        assert self._tape_bytes(net) <= 4.5 * 2 ** 20

    def test_no_tape_entry_holds_a_patch_matrix(self, rng):
        """A forward through the cycle's binding keeps what a plain forward
        keeps: the binding's patch matrix (7.03 MiB for this first conv at
        batch 64) is slot-major, and the kernel gradient builds its own."""
        spec = NetworkSpec((28, 28, 1), [LayerSpec(k, I if k.parametrised else None) for k in
                                         BLOCK_SPECS["24x24-9x9"][1]], 2)
        net = build_network(spec, PlainRandom(), 0)
        x = rng.random((64, 28, 28, 1))
        net.forward(0, x)
        plain = self._tape_bytes(net)
        net.forward(1, x, net.bind(x))
        assert self._tape_bytes(net) == plain < 4.0 * 2 ** 20
        for kind, layer, cache in net._tape[1]:
            if isinstance(kind, Conv):  # input, kernel, bias and slot-major product
                assert [a.ndim for a in cache] == [4, 4, 1, 6]

    def test_pool_caches_the_conv_output_and_the_relu_the_next_input(self, rng):
        net = build_network(conv_spec(I), PlainRandom(), 0)
        x = rng.normal(size=(4, 8, 8, 1))
        for first in (None, net.bind(x)):
            net.forward(0, x, first)
            (block_kind, _, block), (relu_kind, _, relu), (_, _, fc) = net._tape[1]
            assert (block_kind, relu_kind) == (_ConvPool(3, 3, 1, 2), Activation("relu"))
            x_cached, k, b, z = block  # no patch matrix, bound or not
            assert x_cached is x and k.shape == (3, 3, 1, 2)
            assert b is net.param_layers[0].bias_for(0)
            assert z.shape == (4, 2, 2, 3, 3, 2) and z.flags.c_contiguous  # slot-major, bias-free
            want, _ = conv2d_forward(x, k, b)
            assert_bits_equal((z + b).transpose(0, 3, 1, 4, 2, 5).reshape(4, 6, 6, 2), want)
            assert relu[0].shape == (4, 3, 3, 2) and relu[0].min() >= 0.0
            assert fc[0] is relu[0]  # the fc input is the relu output, cached unflattened


def plan_spec(mode, tasks=3):
    """Two conv blocks with relu, maxpool pairs (the second pools 3x3 to 1x1,
    dropping a trailing row and column) and an fc head, every parametrised
    layer in ``mode``."""
    kinds = [Conv(3, 3, 1, 3), Activation("relu"), MaxPool(),
             Conv(2, 2, 3, 4), Activation("relu"), MaxPool(),
             FC(4, 5), Activation("relu"), FC(5, 2)]
    return NetworkSpec((10, 10, 1), [LayerSpec(k, mode if k.parametrised else None)
                                     for k in kinds], tasks)


def with_zeros(rng, shape):
    """Normal samples with a zero block and scattered zeros: at zero biases
    the convs then give outputs of exactly 0, and pool windows whose
    maximum is 0."""
    x = rng.normal(size=shape) * (rng.random(shape) < 0.7)
    x[:, :5, :5] = 0.0
    return x


class TestExecutionPlan:
    """The network runs every relu, maxpool pair of its spec as maxpool,
    relu, and gives the spec order's outputs and gradients to the bit."""

    @pytest.mark.parametrize("active", [[1] * 6, [0, 1, 1, 0, 1, 0], [0] * 6],
                             ids=["dense", "restricted", "none-active"])
    @pytest.mark.parametrize("mode", list(SharingMode), ids=[m.value for m in SharingMode])
    def test_bit_equal_to_spec_order(self, rng, mode, active):
        net = build_network(plan_spec(mode), RandomDecompose(0.3), 4)
        assert [type(k) for k, _ in net._plan[:3]] == [_ConvPool, Activation, _ConvPool]
        task, x = 2, with_zeros(rng, (6, 10, 10, 1))
        want_out, tape = spec_order_forward(net, task, x)
        out = net.forward(task, x)
        assert_bits_equal(out, want_out)
        g = rng.normal(size=out.shape) * np.reshape(active, (-1, 1))
        got_x = net.backward(task, g)
        want_x, want = spec_order_backward(tape, g)
        assert got_x is None and want_x is None
        assert_gradients_bits_equal(net, task, want)

    def test_pool_then_relu_equals_relu_then_pool_to_the_bit(self, rng):
        pool, relu = MaxPool(), Activation("relu")
        # ties, zeros of both signs, all-negative windows; odd height and width
        x = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=(64, 5, 7, 3))
        g = rng.normal(size=(64, 2, 3, 3))
        g[g > 1.0] = -0.0
        y, relu_cache = relu.forward(x)
        want, pool_cache = pool.forward(y)
        (want_x,) = relu.backward(pool.backward(g, pool_cache, True)[0], relu_cache, True)
        pooled, pool_cache = pool.forward(x)
        got, relu_cache = relu.forward(pooled)
        (got_x,) = pool.backward(relu.backward(g, relu_cache, True)[0], pool_cache, True)
        assert_bits_equal(got, want)
        assert_bits_equal(got_x, want_x)

    @pytest.mark.parametrize("fn", ["relu", "tanh"])
    def test_only_relu_runs_after_the_pool(self, rng, fn):
        spec = NetworkSpec((8, 8, 1), [LayerSpec(Conv(3, 3, 1, 2), I), LayerSpec(Activation(fn)),
                                       LayerSpec(MaxPool()), LayerSpec(FC(18, 3), I)], 2)
        net = build_network(spec, PlainRandom(), 0)
        order = ([_ConvPool(3, 3, 1, 2), Activation("relu"), FC(18, 3)] if fn == "relu"
                 else [ls.kind for ls in spec.layers])  # a tanh keeps the standalone pool
        assert [k for k, _ in net._plan] == order
        x = with_zeros(rng, (5, 8, 8, 1))
        want_out, _ = spec_order_forward(net, 1, x)
        assert_bits_equal(net.forward(1, x), want_out)

    def test_spec_ending_in_relu_maxpool(self, rng):
        spec = NetworkSpec((8, 8, 1), [LayerSpec(Conv(3, 3, 1, 2), TUK),
                                       LayerSpec(Activation("relu")), LayerSpec(MaxPool())], 2)
        net = build_network(spec, RandomDecompose(0.3), 1)
        assert [type(k) for k, _ in net._plan] == [_ConvPool, Activation]
        x = with_zeros(rng, (4, 8, 8, 1))
        want_out, tape = spec_order_forward(net, 0, x)
        out = net.forward(0, x)
        assert out.shape == (4, 3, 3, 2)
        assert_bits_equal(out, want_out)
        g = rng.normal(size=out.shape)
        g[1] = 0.0
        net.backward(0, g)
        _, want = spec_order_backward(tape, g)
        assert_gradients_bits_equal(net, 0, want)

    @pytest.mark.parametrize("mode", list(SharingMode), ids=[m.value for m in SharingMode])
    def test_predict_tasks_bit_equal_to_predict(self, rng, mode):
        net = build_network(plan_spec(mode), RandomDecompose(0.3), 6)
        x = with_zeros(rng, (7, 10, 10, 1))
        for tasks in ([0, 1, 2], [2, 0]):
            for t, out in zip(tasks, net.predict_tasks(x, tasks)):
                assert_bits_equal(out, net.forward(t, x))
                assert_bits_equal(out, spec_order_forward(net, t, x)[0])


BLOCK_SPECS = {  # input shape and layers; the conv outputs each block's pool reads
    "24x24-9x9": ((28, 28, 1), [Conv(5, 5, 1, 8), Activation("relu"), MaxPool(),
                                Conv(4, 4, 8, 16), Activation("relu"), MaxPool(), FC(256, 3)]),
    "14x14": ((16, 16, 1), [Conv(3, 3, 1, 4), Activation("relu"), MaxPool(), FC(196, 3)]),
    "7x8": ((9, 10, 2), [Conv(3, 3, 2, 3), Activation("relu"), MaxPool(), FC(36, 3)]),
}


class TestConvPoolBlock:
    """A conv followed by a 2x2 pool runs as one plan step that computes
    only the outputs the pool reads, slot-major, and gives the spec order's
    outputs and gradients to the bit: even and odd conv outputs, odd by
    even, batches around the 64-row block, the whole-batch and the
    restricted backward, and zero ties from the zero input block."""

    @pytest.mark.parametrize("backward", ["whole", "restricted"])
    @pytest.mark.parametrize("batch", [1, 7, 64, 65])
    @pytest.mark.parametrize("spec_name", list(BLOCK_SPECS))
    @pytest.mark.parametrize("mode", list(SharingMode), ids=[m.value for m in SharingMode])
    def test_bit_equal_to_spec_order(self, rng, mode, spec_name, batch, backward):
        shape, kinds = BLOCK_SPECS[spec_name]
        spec = NetworkSpec(shape, [LayerSpec(k, mode if k.parametrised else None) for k in kinds],
                           2)
        net = build_network(spec, RandomDecompose(0.3), 3)
        assert _ConvPool in [type(k) for k, _ in net._plan]
        assert not {MaxPool, Conv} & {type(k) for k, _ in net._plan}
        x = with_zeros(rng, (batch, *shape))
        want_out, tape = spec_order_forward(net, 1, x)
        first = net.bind(x)
        assert_bits_equal(net.predict_tasks(x, [1])[0], np.concatenate(  # per scoring block
            [spec_order_forward(net, 1, x[lo : lo + EVAL_BLOCK])[0]
             for lo in range(0, batch, EVAL_BLOCK)]))
        assert_bits_equal(net.forward(1, x, first), want_out)
        g = rng.normal(size=want_out.shape)
        if backward == "restricted":
            g[::2] = 0.0
        net.backward(1, g)
        _, want = spec_order_backward(tape, g)
        assert_gradients_bits_equal(net, 1, want)

    @staticmethod
    def _assert_step_is_the_conv_then_the_pool(rng, conv, x, k, b):
        block = _ConvPool(conv.h, conv.w, conv.in_ch, conv.out_ch)
        y, conv_cache = conv.forward(x, k, b)
        want, pool_cache = MaxPool().forward(y)
        out, cache = block.forward(x, k, b)
        assert_bits_equal(out, want)
        g = rng.normal(size=out.shape)
        (g_y,) = MaxPool().backward(g, pool_cache, True)
        for got, expected in zip(block.backward(g, cache, True),
                                 conv.backward(g_y, conv_cache, True)):
            assert_bits_equal(got, expected)

    @pytest.mark.parametrize("bias", [[0.0, -0.0], [-0.0, 0.0], [1e16, -3.0], [-1e16, 0.5]],
                             ids=["zeros", "negative-zeros", "large", "large-negative"])
    def test_bias_added_after_the_pool_keeps_every_bit(self, rng, bias):
        """Rounding is monotone, so a window's largest z + b is its largest z
        plus b: the step adds the bias to the pooled output and gives the
        spec's bits, zeros of both signs and sums that round to a tie (1e16
        + 1 == 1e16) included; backward finds the winners in z + b."""
        x = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0], size=(9, 6, 7, 1))
        # a 1x1 kernel of ones: the product z is x in both channels
        self._assert_step_is_the_conv_then_the_pool(rng, Conv(1, 1, 1, 2), x,
                                                    np.ones((1, 1, 1, 2)), np.array(bias))

    @pytest.mark.parametrize("shape, conv", [
        ((12, 12, 8), Conv(4, 4, 8, 16)),  # 9x9 outputs, row-major patches
        ((9, 10, 2), Conv(3, 3, 2, 3)),    # 7x8
        ((8, 8, 1), Conv(3, 3, 1, 2)),     # 6x6, kernel-major patches
    ], ids=["9x9", "7x8", "6x6"])
    def test_step_is_the_conv_then_the_pool_to_the_bit(self, rng, shape, conv):
        """The step's output and its input, kernel and bias gradients are the
        spec kinds' run one after the other; the input gradient is zero in
        the row and column the pool drops."""
        self._assert_step_is_the_conv_then_the_pool(
            rng, conv, with_zeros(rng, (7, *shape)), rng.normal(size=conv.weight_shape()),
            np.zeros(conv.out_ch))


class TestRestrictedBackward:
    """Backward runs only through the samples whose output gradient is not
    all zero, and accumulates what the dense pass over every row does."""

    SPECS = {"five-mode": (five_mode_spec, (6,)), "all-conv": (all_conv_spec, (8, 8, 1))}

    def _net_and_input(self, spec_name, rng):
        spec, input_shape = self.SPECS[spec_name]
        return build_network(spec(), RandomDecompose(0.3), 7), rng.normal(size=(6, *input_shape))

    @pytest.mark.parametrize("active", list(ACTIVE.values()), ids=list(ACTIVE))
    @pytest.mark.parametrize("spec_name", list(SPECS))
    def test_agrees_with_dense_backward(self, rng, spec_name, active):
        restricted, x = self._net_and_input(spec_name, rng)
        dense = build_network(self.SPECS[spec_name][0](), RandomDecompose(0.3), 7)
        task = 1
        out = restricted.forward(task, x)
        g = rng.normal(size=out.shape) * np.reshape(active, (-1,) + (1,) * (out.ndim - 1))
        dense.forward(task, x)
        got_x, (want_x, want) = restricted.backward(task, g), dense_backward(dense, task, g)
        if want_x is None:  # the first layer's input gradient is never formed
            assert got_x is None
        else:
            assert got_x.shape == x.shape
            assert not got_x[np.logical_not(active)].any()
            assert_allclose(got_x, want_x, rtol=1e-12, atol=1e-15)
        got = restricted.gradients(task)
        assert list(got) == list(want)
        for name in want:
            assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-15, err_msg=name)
        if not any(active):  # the pass records nothing; gradients() fills in the zeros
            assert not restricted._grads
            assert not any(a.any() for a in got.values())

    @pytest.mark.parametrize("active", list(ACTIVE.values()), ids=list(ACTIVE))
    def test_conv_and_pool_backward_see_only_active_rows(self, rng, monkeypatch, active):
        import dmtrl.layers as layers_module

        seen = []
        real_conv, real_pool = layers_module.conv2d_backward, layers_module.maxpool2_backward

        def conv(grad_out, cache, need_grad_x=True):
            x, _ = cache
            seen.append(("conv", len(grad_out), len(x)))
            return real_conv(grad_out, cache, need_grad_x=need_grad_x)

        def pool(grad_out, cache, shape=None):
            (y,) = cache  # the conv output, slot-major
            seen.append(("pool", len(grad_out), len(y)))
            return real_pool(grad_out, cache, shape)

        monkeypatch.setattr(layers_module, "conv2d_backward", conv)
        monkeypatch.setattr(layers_module, "maxpool2_backward", pool)
        net, x = self._net_and_input("all-conv", rng)
        out = net.forward(0, x)
        net.backward(0, np.ones_like(out) * np.reshape(active, (-1, 1, 1, 1)))
        n = sum(active)
        assert seen == [("conv", n, n), ("pool", n, n), ("conv", n, n)]

    @pytest.mark.parametrize("fn", ["relu", "tanh"])
    def test_activation_rows_are_the_next_layers_rows(self, rng, monkeypatch, fn):
        """An activation's output is the next layer's input, one array in two
        tape entries; a restricted backward takes its rows once, so the
        activation's restricted cache is the next layer's restricted input."""
        import dmtrl.layers as layers_module

        seen = []
        for name in ("conv2d_backward", "fc_backward", f"{fn}_backward"):
            def spy(grad_out, cache, *args, _name=name, _real=getattr(layers_module, name),
                    **kwargs):
                seen.append((_name, cache[0]))
                return _real(grad_out, cache, *args, **kwargs)

            monkeypatch.setattr(layers_module, name, spy)
        kinds = [Conv(3, 3, 1, 3), Activation(fn), Conv(2, 2, 3, 2), Activation(fn),
                 FC(50, 4), Activation(fn), FC(4, 1)]
        spec = NetworkSpec((8, 8, 1), [LayerSpec(k, I if k.parametrised else None)
                                       for k in kinds], 2)
        net = build_network(spec, PlainRandom(), 0)
        out = net.forward(1, rng.normal(size=(6, 8, 8, 1)))
        net.backward(1, rng.normal(size=out.shape) * np.c_[[1, 1, 0, 0, 1, 1]])
        names = [name for name, _ in seen]
        assert names == ["fc_backward", f"{fn}_backward"] * 2 + [
            "conv2d_backward", f"{fn}_backward", "conv2d_backward"]
        for (_, x), (_, y) in zip(seen[0:6:2], seen[1:6:2]):
            assert len(y) == 4  # restricted to the rows that carry gradient
            assert x is y or x.base is y  # fc flattens the very array the activation holds

    def test_softmax_head_step_bit_identical_to_dense(self, rng):
        from dmtrl.layers import softmax_ce_loss
        from dmtrl.training import make_optimizer

        task, x = 1, rng.normal(size=(6, 6))
        labels = rng.integers(0, 3, size=6)
        nets = [build_network(five_mode_spec([1, 3, 2]), RandomDecompose(0.3), 7)
                for _ in range(2)]
        for net in nets:  # equal networks: equal outputs and loss gradients
            _, g = softmax_ce_loss(net.forward(task, x), labels)
        nets[0].backward(task, g / len(x))
        got, (_, want) = nets[0].gradients(task), dense_backward(nets[1], task, g / len(x))
        assert list(got) == list(want)
        for name in want:
            assert_array_equal(got[name], want[name], err_msg=name)
        for net, grads in zip(nets, (got, want)):
            make_optimizer(TrainConfig()).step(net.parameters(task), grads)
        after, want_after = nets[0].parameters(), nets[1].parameters()
        for name in want_after:
            assert_array_equal(after[name], want_after[name], err_msg=name)

    def test_hinge_training_runs_repeat_bit_for_bit(self, rng, monkeypatch):
        takes = []
        real_take = _ConvPool.take

        def counting(kind, cache, rows, memo):
            takes.append(len(rows))
            return real_take(kind, cache, rows, memo)

        monkeypatch.setattr(_ConvPool, "take", counting)
        x = rng.normal(size=(24, 8, 8, 1))
        datasets = [TaskDataset(t, x, np.where(x[:, 2 + t, 3, 0] > 0, 1, -1)) for t in range(2)]
        cfg = TrainConfig(epochs=6, batch_size=8, seed=3, lr=0.05)

        def run():
            net = build_network(conv_spec(TUK), RandomDecompose(0.3), 9)
            log = train(net, datasets, cfg)
            return [(r.loss, r.error) for r in log], net.parameters()

        (log_a, params_a), (log_b, params_b) = run(), run()
        assert takes  # some steps ran backward on fewer rows than the batch
        assert log_a == log_b
        for name in params_a:
            assert_array_equal(params_a[name], params_b[name], err_msg=name)


class TestTaskStep:
    def test_train_step_touches_only_the_task_tensors(self, rng, monkeypatch):
        import dmtrl.training as training_module

        spec = five_mode_spec()
        net = build_network(spec, RandomDecompose(0.2), 18)
        datasets = [TaskDataset(t, rng.normal(size=(8, 6)), np.where(np.arange(8) % 2, 1, -1))
                    for t in range(spec.tasks)]
        before = {name: p.copy() for name, p in net.parameters().items()}
        stepped = list(net.parameters(0))
        assert set(before) - set(stepped)  # the other tasks own private tensors

        class Stop(Exception):
            pass

        seen, make = [], training_module.make_optimizer

        def first_step_only(cfg):
            opt = make(cfg)
            step = opt.step

            def once(params, grads):
                seen.append((list(params), list(grads)))
                step(params, grads)
                raise Stop

            opt.step = once
            return opt

        monkeypatch.setattr(training_module, "make_optimizer", first_step_only)
        with pytest.raises(Stop):
            train(net, datasets, TrainConfig(epochs=1, batch_size=8, seed=0))
        assert seen == [(stepped, stepped)]
        after = net.parameters()
        assert any(not np.array_equal(after[name], before[name]) for name in stepped)
        for name in set(before) - set(stepped):
            assert_array_equal(after[name], before[name], err_msg=name)


class TestCountParameters:
    def make_net(self, mode, k=None):
        spec = NetworkSpec((3,), [LayerSpec(FC(3, 2), mode)], 4)
        net = MultiTaskNetwork(spec)
        if mode is LAF:
            set_factors(
                net,
                0,
                LAFFactors(np.zeros((3, 2, k)), np.zeros((k, 4))),
                biases=[np.zeros(2)] * 4,
            )
        else:
            net.set_layer_weights(0, [np.zeros((3, 2))] * 4, [np.zeros(2)] * 4)
        return net

    def test_independent(self):
        assert count_parameters(self.make_net(I))["total"] == 3 * 2 * 4 + 2 * 4

    def test_tied(self):
        assert count_parameters(self.make_net(T))["total"] == 3 * 2 + 2

    def test_laf(self):
        got = count_parameters(self.make_net(LAF, k=2))
        assert got["total"] == 3 * 2 * 2 + 2 * 4 + 2 * 4
        assert got["ratio_vs_independent"] == pytest.approx(28 / 32)

    def test_ordering_tied_soft_independent(self, rng):
        # truncation only pays off when task weights are correlated, which is
        # the regime the factorised initialisation produces: a shared draw
        # plus small per-task deviations
        from dmtrl.factorization import laf_decompose, tt_decompose, tucker_decompose

        tasks, eps = 6, 0.1
        spec_of = lambda m: NetworkSpec(
            (10,), [LayerSpec(FC(10, 8), m), LayerSpec(FC(8, 1), I)], tasks
        )
        base = rng.normal(size=(10, 8))
        stacked = np.stack(
            [base + 0.05 * rng.normal(size=(10, 8)) for _ in range(tasks)], axis=-1
        )
        tied = build_network(spec_of(T), PlainRandom(), 0)
        ind = build_network(spec_of(I), PlainRandom(), 0)
        soft_counts = []
        for m, decomp in ((LAF, laf_decompose), (TUK, tucker_decompose), (TT, tt_decompose)):
            net = MultiTaskNetwork(spec_of(m))
            set_factors(net, 0, decomp(stacked, eps), biases=[np.zeros(8)] * tasks)
            net.set_layer_weights(1, [np.zeros((8, 1))] * tasks, [np.zeros(1)] * tasks)
            soft_counts.append(count_parameters(net)["total"])
        assert count_parameters(tied)["total"] < min(soft_counts)
        assert max(soft_counts) < count_parameters(ind)["total"]


class TestReductionToMatrixCase:
    """With no hidden layer and a single output, the LAF model is exactly
    the factorised linear multi-task model W = L S."""

    def test_loss_trajectory_matches_direct_implementation(self, rng):
        d, k, tasks, n, steps, lr = 5, 2, 3, 12, 100, 0.05
        x = rng.normal(size=(tasks, n, d))
        y = np.where(rng.random((tasks, n)) < 0.5, -1.0, 1.0)
        l0 = rng.normal(size=(d, k))
        s0 = rng.normal(size=(k, tasks))

        spec = NetworkSpec((d,), [LayerSpec(FC(d, 1), LAF)], tasks)
        net = MultiTaskNetwork(spec)
        set_factors(net, 0, LAFFactors(l0.reshape(d, 1, k).copy(), s0.copy()),
                    biases=[np.zeros(1)] * tasks)

        # direct matrix implementation updated by plain SGD
        L, S = l0.copy(), s0.copy()
        b = np.zeros(tasks)

        from dmtrl.layers import hinge_loss

        net_losses, ref_losses = [], []
        for step in range(steps):
            t = step % tasks
            out = net.forward(t, x[t])
            losses, g = hinge_loss(out[:, 0], y[t])
            net_losses.append(losses.mean())
            grad = np.zeros_like(out)
            grad[:, 0] = g / n
            net.backward(t, grad)
            params, grads = net.parameters(), net.gradients()
            for name, p in params.items():
                p -= lr * grads[name]

            w_t = L @ S[:, t]
            scores = x[t] @ w_t + b[t]
            ref_l, ref_g = hinge_loss(scores, y[t])
            ref_losses.append(ref_l.mean())
            gw = x[t].T @ (ref_g / n)        # d loss / d w_t
            gL = np.outer(gw, S[:, t])
            gS = L.T @ gw
            L -= lr * gL
            S[:, t] -= lr * gS
            b[t] -= lr * (ref_g / n).sum()

        assert np.max(np.abs(np.array(net_losses) - np.array(ref_losses))) <= 1e-10
