import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dmtrl.data import LabeledImages, TaskDataset, make_suite, synth_digits, synth_heterogeneous
from dmtrl.factorization import compose_tt
from dmtrl.network import (
    EVAL_BLOCK,
    FC,
    Activation,
    Conv,
    LayerSpec,
    MaxPool,
    NetworkSpec,
    SharingMode,
    build_network,
)
from dmtrl.training import (
    PlainRandom,
    RandomDecompose,
    TrainConfig,
    TrainRecord,
    evaluate_suite,
    evaluate_tasks,
    init_from_stl,
    make_optimizer,
    pretrain_stl,
    task_loss,
    train,
)

from conftest import (
    assert_bits_equal,
    assert_gradients_bits_equal,
    full_compose,
    named_gradients,
    spec_order_backward,
    spec_order_forward,
)

I, TIED, LAF, TUK, TT = (SharingMode.INDEPENDENT, SharingMode.TIED, SharingMode.SOFT_LAF,
                         SharingMode.SOFT_TUCKER, SharingMode.SOFT_TT)


def two_blob_task(task_id, rng, n=80, gap=3.0):
    """Linearly separable 2-D points labelled by the blob they came from."""
    half = n // 2
    x = np.concatenate([
        rng.normal(size=(half, 2)) + gap,
        rng.normal(size=(half, 2)) - gap,
    ])
    y = np.concatenate([np.ones(half), -np.ones(half)]).astype(np.int64)
    return TaskDataset(task_id, x, y)


def linear_spec(mode, tasks, d=2):
    return NetworkSpec((d,), [LayerSpec(FC(d, 1), mode)], tasks)


def mlp_spec(mode_hidden, mode_head, tasks, d=2, hidden=4):
    return NetworkSpec(
        (d,),
        [LayerSpec(FC(d, hidden), mode_hidden),
         LayerSpec(Activation("relu")),
         LayerSpec(FC(hidden, 1), mode_head)],
        tasks,
    )


def sgd_oracle_error(ds, epochs=200, lr=0.05):
    """Plain margin-driven updates on a linear scorer, as a feasibility bound."""
    rng = np.random.default_rng(0)
    w = np.zeros(ds.inputs.shape[1])
    b = 0.0
    for _ in range(epochs):
        order = rng.permutation(len(ds))
        for i in order:
            x, y = ds.inputs[i], ds.labels[i]
            if (x @ w + b) * y < 1:
                w += lr * y * x
                b += lr * y
    preds = np.where(ds.inputs @ w + b > 0, 1, -1)
    return float(np.mean(preds != ds.labels))


class TestPretrainStl:
    def test_single_task_loss_decreases(self, rng):
        ds = [two_blob_task(0, rng)]
        cfg = TrainConfig(epochs=30, batch_size=16, seed=1)
        net = build_network(mlp_spec(I, I, 1), PlainRandom(), 1)
        log = train(net, ds, cfg)
        first = np.mean([r.loss for r in log if r.epoch == 0])
        last = np.mean([r.loss for r in log if r.epoch == cfg.epochs - 1])
        assert last < first

    def test_identical_data_identical_weights(self, rng):
        base = two_blob_task(0, rng)
        tasks = [base, TaskDataset(1, base.inputs.copy(), base.labels.copy())]
        cfg = TrainConfig(epochs=5, batch_size=16, seed=2)
        net = pretrain_stl(mlp_spec(I, I, 2), tasks, cfg)
        l0, l2 = net.layer_state(0), net.layer_state(2)
        assert_array_equal(l0.weights[0], l0.weights[1])
        assert_array_equal(l2.biases[0], l2.biases[1])

    def test_reaches_oracle_level_error(self, rng):
        ds = [two_blob_task(0, rng, n=100)]
        oracle = sgd_oracle_error(ds[0])
        assert oracle <= 0.05  # the task really is separable
        cfg = TrainConfig(epochs=50, batch_size=16, seed=3, lr=0.01)
        net = pretrain_stl(mlp_spec(I, I, 1), ds, cfg)
        assert evaluate_tasks(net, ds)[0] <= 0.05


class TestInitFromStl:
    def make_stl(self, rng, tasks=3, epochs=4):
        datasets = [two_blob_task(t, rng) for t in range(tasks)]
        cfg = TrainConfig(epochs=epochs, batch_size=20, seed=4)
        spec = mlp_spec(I, I, tasks)
        return spec, datasets, pretrain_stl(spec, datasets, cfg)

    def test_identical_nets_collapse_to_rank_one(self, rng):
        tasks = 3
        base = two_blob_task(0, rng)
        datasets = [TaskDataset(t, base.inputs.copy(), base.labels.copy())
                    for t in range(tasks)]
        cfg = TrainConfig(epochs=3, batch_size=20, seed=5)
        spec = mlp_spec(I, I, tasks)
        stl = pretrain_stl(spec, datasets, cfg)
        target = mlp_spec(LAF, LAF, tasks)
        net = init_from_stl(stl, target, 0.1)
        assert net.layer_state(0).factors.s.shape[0] == 1
        assert net.layer_state(2).factors.s.shape[0] == 1

    def test_tiny_epsilon_preserves_outputs(self, rng):
        spec, datasets, stl = self.make_stl(rng)
        for mode in (LAF, TUK, TT):
            net = init_from_stl(stl, mlp_spec(mode, mode, 3), 1e-10)
            x = rng.normal(size=(7, 2))
            for t in range(3):
                assert_allclose(net.forward(t, x), stl.forward(t, x), atol=1e-8)

    def test_reconstruction_within_scheme_bound(self, rng):
        spec, datasets, stl = self.make_stl(rng)
        eps = 0.1
        stacked0 = np.stack(
            [stl.layer_state(0).weights[t] for t in range(3)], axis=-1
        )
        for mode, bound in ((LAF, eps), (TUK, np.sqrt(3) * eps), (TT, eps)):
            net = init_from_stl(stl, mlp_spec(mode, mode, 3), eps)
            approx = full_compose(net.layer_state(0).factors)
            rel = np.linalg.norm(approx - stacked0) / np.linalg.norm(stacked0)
            assert rel <= bound + 1e-12

    def test_architecture_mismatch_rejected(self, rng):
        spec, datasets, stl = self.make_stl(rng)
        with pytest.raises(ValueError):
            init_from_stl(stl, linear_spec(LAF, 3), 0.1)

    @pytest.mark.parametrize("mode", [SharingMode.TIED, I, LAF])
    def test_width_mismatch_rejected(self, rng, mode):
        # same layer kinds, but a hidden width of 5 where the STL net has 4
        spec, datasets, stl = self.make_stl(rng)
        with pytest.raises(ValueError, match="shapes"):
            init_from_stl(stl, mlp_spec(mode, I, 3, hidden=5), 0.1)


class TestInitRandomDecompose:
    def test_tiny_epsilon_recomposes_sample(self):
        # same seed, exact factorisation: recomposed tensor equals the one
        # a plain independent build would have drawn per task
        spec = mlp_spec(LAF, LAF, 3)
        net = build_network(spec, RandomDecompose(1e-10), 6)
        w = full_compose(net.layer_state(0).factors)
        assert w.shape == (2, 4, 3)
        rebuilt = build_network(spec, RandomDecompose(1e-10), 6)
        assert_allclose(full_compose(rebuilt.layer_state(0).factors), w, atol=1e-12)

    def test_recomposed_variance_near_fan_rule(self):
        tasks = 4
        spec = NetworkSpec((50,), [LayerSpec(FC(50, 50), TT), LayerSpec(FC(50, 1), I)],
                           tasks)
        net = build_network(spec, RandomDecompose(0.1), 7)
        w = compose_tt(net.layer_state(0).factors)
        target_var = (2 * np.sqrt(6.0 / 100)) ** 2 / 12.0
        assert abs(float(w.var()) - target_var) / target_var <= 0.2
        assert abs(float(w.mean())) <= 0.01

    def test_same_seed_identical_factors(self):
        spec = mlp_spec(TUK, TUK, 2)
        a = build_network(spec, RandomDecompose(0.2), 8)
        b = build_network(spec, RandomDecompose(0.2), 8)
        for (na, pa), (nb, pb) in zip(a.parameters().items(), b.parameters().items()):
            assert na == nb
            assert_array_equal(pa, pb)


class TestTrainLoop:
    def test_zero_learning_rate_keeps_parameters(self, rng):
        datasets = [two_blob_task(t, rng) for t in range(2)]
        net = build_network(mlp_spec(I, I, 2), PlainRandom(), 9)
        before = {k: v.copy() for k, v in net.parameters().items()}
        train(net, datasets, TrainConfig(epochs=2, lr=0.0, batch_size=16, seed=9,
                                         optimizer="sgd"))
        for k, v in net.parameters().items():
            assert_array_equal(v, before[k])

    def test_single_task_matches_standalone_run(self, rng):
        ds = two_blob_task(0, rng)
        cfg = TrainConfig(epochs=4, batch_size=16, seed=10)
        net_a = build_network(mlp_spec(I, I, 1), PlainRandom(), 10)
        log_a = train(net_a, [ds], cfg)
        net_b = build_network(mlp_spec(I, I, 1), PlainRandom(), 10)
        log_b = train(net_b, [TaskDataset(0, ds.inputs.copy(), ds.labels.copy())], cfg)
        assert [r.loss for r in log_a] == [r.loss for r in log_b]
        for k in net_a.parameters():
            assert_array_equal(net_a.parameters()[k], net_b.parameters()[k])

    def test_identical_tasks_align_mixing_columns(self, rng):
        base = two_blob_task(0, rng, n=60)
        datasets = [TaskDataset(t, base.inputs.copy(), base.labels.copy())
                    for t in range(2)]
        spec = linear_spec(LAF, 2)
        stl = pretrain_stl(spec, datasets, TrainConfig(epochs=3, batch_size=20, seed=11))
        net = init_from_stl(stl, linear_spec(LAF, 2), 0.1)
        train(net, datasets, TrainConfig(epochs=20, batch_size=20, seed=11))
        s = net.layer_state(0).factors.s
        cos = float(s[:, 0] @ s[:, 1]
                    / (np.linalg.norm(s[:, 0]) * np.linalg.norm(s[:, 1])))
        assert cos >= 0.9

    def test_determinism_bit_identical(self, rng):
        datasets = [two_blob_task(t, rng) for t in range(3)]
        cfg = TrainConfig(epochs=3, batch_size=16, seed=12)

        def run():
            net = build_network(mlp_spec(TT, TT, 3), RandomDecompose(0.3), 12)
            log = train(net, datasets, cfg)
            return log, {k: v.copy() for k, v in net.parameters().items()}

        log_a, params_a = run()
        log_b, params_b = run()
        assert [(r.loss, r.error) for r in log_a] == [(r.loss, r.error) for r in log_b]
        for k in params_a:
            assert_array_equal(params_a[k], params_b[k])

    def test_adam_matches_allocating_formula_bit_for_bit(self, rng):
        from dmtrl.training import make_optimizer

        cfg = TrainConfig(lr=3e-3, beta1=0.8, beta2=0.99, adam_eps=1e-7)
        shapes = {"small": (3,), "large": (4, 5, 2), "late": (2, 3)}
        # parameters as small as a step, so that no step's last bits round away
        params = {name: 1e-3 * rng.normal(size=shape) for name, shape in shapes.items()}
        want = {name: p.copy() for name, p in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        t = dict.fromkeys(shapes, 0)
        opt = make_optimizer(cfg)
        for step in range(6):
            names = ["small", "large"] + (["late"] if step >= 3 else [])
            grads = {name: rng.normal(size=shapes[name]) for name in names}
            opt.step({name: params[name] for name in names}, grads)
            for name in names:  # the update written with fresh temporaries
                g, p = grads[name], want[name]
                t[name] += 1
                m[name] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * g
                v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * (g * g)
                c1, c2 = 1.0 - cfg.beta1 ** t[name], 1.0 - cfg.beta2 ** t[name]
                p -= cfg.lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + cfg.adam_eps)
            for name in shapes:
                assert_array_equal(params[name], want[name], err_msg=f"{name} at step {step}")
            for name in names:
                assert_array_equal(opt.m[name], m[name])
                assert_array_equal(opt.v[name], v[name])

    def test_sgd_matches_textbook_update_bit_for_bit(self, rng):
        cfg = TrainConfig(optimizer="sgd", lr=0.05)
        shapes = {"small": (3,), "large": (4, 5, 2), "late": (2, 3)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        want = {name: p.copy() for name, p in params.items()}
        opt = make_optimizer(cfg)
        for step in range(6):
            # a task's step updates only the parameters on its path
            names = [["small", "large"], ["large"], ["small", "late"]][step % 3]
            grads = {name: rng.normal(size=shapes[name]) for name in names}
            opt.step({name: params[name] for name in names}, grads)
            for name in names:
                want[name] -= cfg.lr * grads[name]
            for name in shapes:
                assert_array_equal(params[name], want[name], err_msg=f"{name} at step {step}")

    def test_dataset_count_mismatch(self, rng):
        net = build_network(mlp_spec(I, I, 2), PlainRandom(), 0)
        with pytest.raises(ValueError):
            train(net, [two_blob_task(0, rng)], TrainConfig(epochs=1))


class TestEvaluate:
    class _FixedScorer:
        """Stand-in network producing canned per-task scores."""

        def __init__(self, fn, tasks):
            self.fn = fn
            self.tasks = tasks

        def predict_tasks(self, x, tasks):
            return [self.fn(t, x) for t in tasks]

    def test_perfect_scorer_zero_error(self, rng):
        ds = two_blob_task(0, rng)
        # every input row carries its row index, so canned scores align
        # with labels however the rows are split into blocks
        ds = TaskDataset(0, np.arange(len(ds))[:, None], ds.labels)
        net = self._FixedScorer(lambda t, x: ds.labels[x[:, 0].astype(int), None] * 5.0, 1)
        assert evaluate_tasks(net, [ds])[0] == 0.0

    def test_constant_scorer_half_error_on_balanced(self, rng):
        ds = two_blob_task(0, rng, n=100)
        net = self._FixedScorer(lambda t, x: np.ones((len(x), 1)), 1)
        assert evaluate_tasks(net, [ds])[0] == 0.5

    def test_multiclass_ranking_matches_argmax_oracle(self, rng):
        from dmtrl.data import LabeledImages, make_suite

        n, tasks = 40, 3
        labels = rng.integers(0, tasks, n)
        scores = rng.normal(size=(n, tasks))
        scores[0], labels[0] = 0.5, 0                  # exact three-way tie
        scores[1], labels[1] = [-1.0, 2.0, 2.0], 1     # tie between tasks 1 and 2
        images = rng.integers(0, 256, (n, 2, 2), dtype=np.uint8)
        images[:, 0, 0] = np.arange(n)                 # each image carries its row index
        raw = LabeledImages(images, labels, tasks)

        def canned(t, x):
            return scores[np.rint(x[:, 0, 0, 0] * 255).astype(int), t][:, None]

        got = evaluate_suite(self._FixedScorer(canned, tasks), make_suite(raw))
        want = float(np.mean(scores.argmax(1) != labels))
        assert got["multiclass"] == want
        # ties go to the lowest task, so both tie rows count as correct
        assert got["multiclass"] == int(np.sum(scores.argmax(1)[2:] != labels[2:])) / n
        one_vs_all = np.where(labels[:, None] == np.arange(tasks), 1, -1)
        pred = np.where(scores > 0, 1, -1)
        assert got["per_task"] == [float(np.mean(pred[:, t] != one_vs_all[:, t]))
                                   for t in range(tasks)]
        assert got["mean_binary"] == float(np.mean(got["per_task"]))

    @pytest.mark.parametrize("n", [EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1,
                                   2 * EVAL_BLOCK + 37])
    def test_blocks_match_one_pass(self, n):
        """Both evaluators agree with scoring every row in one ``forward``
        call, on either side of the block boundary, with binary and
        multi-class heads."""
        from dmtrl.data import as_multiclass, make_suite, synth_digits

        binary, multi = synth_heterogeneous(3, n)
        tasks = [as_multiclass(binary), multi]
        spec = NetworkSpec((16, 16, 1), [LayerSpec(FC(256, 12), TT),
                                         LayerSpec(Activation("relu")),
                                         LayerSpec(FC(12, 8), I)], 2, head_dims=[2, 8])
        net = build_network(spec, RandomDecompose(0.1), 5)
        whole = [net.forward(t, ds.inputs).argmax(1) for t, ds in enumerate(tasks)]
        assert evaluate_tasks(net, tasks) == [
            int(np.sum(p != ds.labels)) / n for p, ds in zip(whole, tasks)]

        suite = make_suite(synth_digits(4, n, noise=0.1, jitter=1))
        spec = NetworkSpec((28, 28, 1), [LayerSpec(FC(784, 12), LAF),
                                         LayerSpec(Activation("relu")),
                                         LayerSpec(FC(12, 1), I)], 10)
        net = build_network(spec, RandomDecompose(0.1), 5)
        inputs = suite.source.float_inputs()
        scores = np.column_stack([net.forward(t, inputs)[:, 0] for t in range(10)])
        got = evaluate_suite(net, suite)
        assert got["per_task"] == [
            float(np.mean(np.where(scores[:, t] > 0, 1, -1) != suite.tasks[t].labels))
            for t in range(10)]
        assert got["mean_binary"] == float(np.mean(got["per_task"]))
        assert got["multiclass"] == float(np.mean(scores.argmax(1) != suite.source.labels))
        assert evaluate_tasks(net, suite.tasks) == got["per_task"]

    def test_empty_set_rejected(self, rng):
        net = build_network(mlp_spec(I, I, 1), PlainRandom(), 0)
        empty = TaskDataset(0, np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            evaluate_tasks(net, [empty])

    def test_one_rule_for_loss_and_both_evaluators(self, rng):
        """A score of exactly 0 predicts -1 and a tie goes to the lowest
        class in ``task_loss``'s batch error and in both evaluators."""
        n, tasks = 12, 3
        labels = np.arange(n) % tasks
        scores = rng.normal(size=(n, tasks))
        scores[:4, 0] = 0.0                     # labels 0, 1, 2, 0: a zero never predicts +1
        scores[4:6] = 1.5                       # three-way ties, labels 1 and 2
        images = np.zeros((n, 2, 2), dtype=np.uint8)
        images[:, 0, 0] = np.arange(n)
        suite = make_suite(LabeledImages(images, labels, tasks))

        def rows(x):  # each image carries its row index
            return np.rint(x[:, 0, 0, 0] * 255).astype(int)

        net = self._FixedScorer(lambda t, x: scores[rows(x), t][:, None], tasks)
        got = evaluate_suite(net, suite)
        sign = np.where(scores > 0, 1, -1)
        want = [np.count_nonzero(sign[:, t] != suite.tasks[t].labels) / n for t in range(tasks)]
        assert got["per_task"] == want
        assert evaluate_tasks(net, suite.tasks) == want
        assert got["multiclass"] == np.count_nonzero(scores.argmax(1) != labels) / n
        idx = np.arange(n)
        for t, ds in enumerate(suite.tasks):
            assert task_loss(scores[:, t:t + 1], ds, idx)[2] == want[t]
        multi = TaskDataset(0, suite.tasks[0].inputs, labels, tasks)
        assert task_loss(scores, multi, idx)[2] == got["multiclass"]
        ranker = self._FixedScorer(lambda t, x: scores[rows(x)], 1)
        assert evaluate_tasks(ranker, [multi]) == [got["multiclass"]]

    def test_suite_scored_from_its_tasks_inputs(self, rng, monkeypatch):
        """``evaluate_suite`` reads the array ``make_suite`` converted, all
        of it in one call for the tasks that share it, and never converts
        the source pixels again."""
        suite = make_suite(LabeledImages(rng.integers(0, 256, (70, 4, 4), dtype=np.uint8),
                                         rng.integers(0, 3, 70), 3))
        net = build_network(NetworkSpec((4, 4, 1), [LayerSpec(FC(16, 1), I)], 3),
                            PlainRandom(), 1)
        want = evaluate_tasks(net, suite.tasks)
        seen = []

        def scoring(x, tasks, _real=type(net).predict_tasks):
            seen.append((x is suite.tasks[0].inputs, list(tasks)))
            return _real(net, x, tasks)

        monkeypatch.setattr(net, "predict_tasks", scoring)
        monkeypatch.setattr(LabeledImages, "float_inputs",
                            lambda self: pytest.fail("source pixels converted again"))
        got = evaluate_suite(net, suite)
        assert got["per_task"] == want
        assert seen == [(True, [0, 1, 2])]  # 70 rows, two blocks, one call

    @pytest.mark.parametrize("tasks", [2, 4])
    def test_suite_task_count_must_match_the_network(self, rng, tasks):
        suite = make_suite(LabeledImages(rng.integers(0, 256, (8, 4, 4), dtype=np.uint8),
                                         np.arange(8) % tasks, tasks))
        net = build_network(NetworkSpec((4, 4, 1), [LayerSpec(FC(16, 1), I)], 3),
                            PlainRandom(), 1)
        with pytest.raises(ValueError, match=f"3 tasks but {tasks} datasets"):
            evaluate_suite(net, suite)

    def test_task_list_count_must_match_the_network(self, rng):
        """A 3-task network scored on one dataset is rejected, not scored as
        task 0 alone."""
        net = build_network(NetworkSpec((4, 4, 1), [LayerSpec(FC(16, 1), I)], 3),
                            PlainRandom(), 1)
        ds = TaskDataset(0, rng.random((8, 4, 4, 1)), np.where(np.arange(8) % 2, 1, -1))
        with pytest.raises(ValueError, match="3 tasks but 1 datasets"):
            evaluate_tasks(net, [ds])
        assert len(evaluate_tasks(net, [ds] * 3)) == 3


class TestHeterogeneousSmoke:
    def test_two_heads_train_below_10pct(self):
        from dmtrl.data import as_multiclass

        bin_train, cls_train = synth_heterogeneous(0, 480)
        bin_test, cls_test = synth_heterogeneous(1, 320)
        tasks_train = [as_multiclass(bin_train), cls_train]
        tasks_test = [as_multiclass(bin_test), cls_test]
        spec = NetworkSpec(
            (16, 16, 1),
            [LayerSpec(FC(256, 32), TT),
             LayerSpec(Activation("tanh")),
             LayerSpec(FC(32, 8), I)],
            2,
            head_dims=[2, 8],
        )
        net = build_network(spec, RandomDecompose(0.1), 13)
        train(net, tasks_train, TrainConfig(epochs=15, batch_size=32, seed=13))
        errs = evaluate_tasks(net, tasks_test)
        assert errs[0] < 0.10 and errs[1] < 0.10


def spec_order_train(net, datasets, config):
    """:func:`train` with every task gathering its own batch and running the
    spec's layers in written order (``conftest.spec_order_forward``)."""
    from dmtrl.training import _BatchStream

    opt = make_optimizer(config)
    streams = [_BatchStream(len(ds), config.batch_size, np.random.default_rng(config.seed))
               for ds in datasets]
    cycles = max(1, math.ceil(max(len(ds) for ds in datasets) / config.batch_size))
    log = []
    for epoch in range(config.epochs):
        loss_sum, err_sum = np.zeros(net.tasks), np.zeros(net.tasks)
        for _ in range(cycles):
            for t, ds in enumerate(datasets):
                idx = streams[t].next()
                out, tape = spec_order_forward(net, t, ds.inputs[idx])
                loss, grad, err = task_loss(out, ds, idx)
                grads = named_gradients(net, t, spec_order_backward(tape, grad)[1])
                opt.step(net.parameters(t), grads)
                loss_sum[t] += loss
                err_sum[t] += err
        log += [TrainRecord(epoch, t, loss_sum[t] / cycles, err_sum[t] / cycles)
                for t in range(net.tasks)]
    return log


def one_vs_all_case():
    """Ten binary tasks over one shared 28x28 array; two conv blocks."""
    tasks = make_suite(synth_digits(5, 48)).tasks
    kinds = [Conv(5, 5, 1, 2), Activation("relu"), MaxPool(),
             Conv(3, 3, 2, 3), Activation("relu"), MaxPool(), FC(75, 1)]
    modes = [TUK, None, None, I, None, None, LAF]
    return tasks, NetworkSpec((28, 28, 1), [LayerSpec(k, m) for k, m in zip(kinds, modes)], 10)


def heterogeneous_case(separate):
    """A binary and an 8-class softmax task over 16x16 inputs: one array, or
    a copy each."""
    tasks = synth_heterogeneous(3, 40)
    if separate:
        tasks = tuple(replace(ds, inputs=ds.inputs.copy()) for ds in tasks)
    kinds = [Conv(3, 3, 1, 4), Activation("relu"), MaxPool(), FC(196, 8), Activation("relu"),
             FC(8, 8)]
    modes = [TT, None, None, TIED, None, I]
    return tasks, NetworkSpec((16, 16, 1), [LayerSpec(k, m) for k, m in zip(kinds, modes)], 2,
                              head_dims=[1, 8])


CASES = {
    "one-vs-all": (one_vs_all_case, 1),
    "heterogeneous-one-array": (lambda: heterogeneous_case(False), 1),
    "heterogeneous-two-arrays": (lambda: heterogeneous_case(True), 2),
}


class TestCycleBinding:
    """Consecutive tasks that read one array at equal indices share one
    gathered batch and one binding of the first layer per cycle."""

    CONFIG = TrainConfig(epochs=2, batch_size=16, seed=5, lr=5e-3)

    @staticmethod
    def _count_first_conv_patches(monkeypatch):
        """Patch matrices of 1-channel inputs (the first conv's), built in a
        forward pass and in a backward pass."""
        import dmtrl.layers as layers_module

        built = {"forward": 0, "backward": 0}
        in_backward = []
        real_patches, real_backward = layers_module.conv2d_patches, layers_module.conv2d_backward

        def patches(x, hk, wk, slots=False):
            if x.shape[-1] == 1:
                built["backward" if in_backward else "forward"] += 1
            return real_patches(x, hk, wk, slots)

        def backward(*args, **kwargs):
            in_backward.append(True)
            try:
                return real_backward(*args, **kwargs)
            finally:
                in_backward.pop()

        monkeypatch.setattr(layers_module, "conv2d_patches", patches)
        monkeypatch.setattr(layers_module, "conv2d_backward", backward)
        return built

    @pytest.mark.parametrize("case", list(CASES))
    def test_one_forward_patch_matrix_per_array_and_cycle(self, monkeypatch, case):
        make, arrays = CASES[case]
        tasks, spec = make()
        built = self._count_first_conv_patches(monkeypatch)
        train(build_network(spec, RandomDecompose(0.3), 8), tasks, self.CONFIG)
        cycles = math.ceil(max(len(ds) for ds in tasks) / self.CONFIG.batch_size)
        assert built["forward"] == self.CONFIG.epochs * cycles * arrays

    @pytest.mark.parametrize("case", list(CASES))
    def test_bit_identical_to_spec_order_per_task_batches(self, case):
        tasks, spec = CASES[case][0]()
        nets = [build_network(spec, RandomDecompose(0.3), 8) for _ in range(2)]
        log = train(nets[0], tasks, self.CONFIG)
        assert log == spec_order_train(nets[1], tasks, self.CONFIG)
        got, want = nets[0].parameters(), nets[1].parameters()
        assert list(got) == list(want)
        for name in want:
            assert_bits_equal(got[name], want[name], name)

    def test_dense_backward_builds_its_own_spec_order_patches(self, monkeypatch, rng):
        """The cycle's binding builds slot-major patches for the fused first
        conv and pool; the tape keeps none, so a backward over the whole
        batch builds the spec-order rows its kernel gradient sums."""
        tasks, spec = heterogeneous_case(False)
        net = build_network(spec, RandomDecompose(0.3), 8)
        x = tasks[1].inputs[:12]
        want_out, tape = spec_order_forward(net, 1, x)
        g = rng.normal(size=want_out.shape)  # every row carries gradient
        _, want = spec_order_backward(tape, g)
        built = self._count_first_conv_patches(monkeypatch)
        first = net.bind(x)
        net.forward(0, x, first)  # another task on the same binding
        out = net.forward(1, x, first)
        assert_bits_equal(out, want_out)
        net.backward(1, g)
        assert built == {"forward": 1, "backward": 1}
        assert want.keys() == net.param_layers.keys()
        assert_gradients_bits_equal(net, 1, want)
