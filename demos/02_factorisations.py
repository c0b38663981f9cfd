"""The three sharing structures, as decompose/compose pairs.

A stack of per-task weight tensors (task index last) can be rebuilt from
far fewer numbers when the tasks are related.  One error budget epsilon
drives every rank choice: decompose at epsilon, and the recomposed tensor
is within that relative error of the original.  Training composes one task
slice at a time, so the stack is rebuilt here slice by slice.
"""
import numpy as np

from dmtrl import compose_task, decompose

rng = np.random.default_rng(1)

# Six related "tasks": a shared 8x5 weight matrix plus small private parts.
base = rng.normal(size=(8, 5))
stack = np.stack([base + 0.1 * rng.normal(size=(8, 5)) for _ in range(6)], axis=-1)
norm = np.linalg.norm(stack)
print("stacked weights:", stack.shape, "=", stack.size, "numbers")


def report(name, factors, n_params):
    rebuilt = np.stack([compose_task(factors, t) for t in range(stack.shape[-1])], -1)
    err = np.linalg.norm(rebuilt - stack) / norm
    print(f"  {name:7s} params {n_params:4d}  rel err {err:.4f}")


for eps in (0.5, 0.2, 0.05, 1e-10):
    print(f"epsilon = {eps:g}")
    f = decompose("laf", stack, eps)
    report("LAF", f, f.l.size + f.s.size)
    g = decompose("tucker", stack, eps)
    report("Tucker", g, g.core.size + sum(u.size for u in g.u))
    h = decompose("tt", stack, eps)
    report("TT", h, h.head.size + sum(c.size for c in h.cores) + h.tail.size)

# The LAF mixing matrix is the task fingerprint: with near-identical tasks
# its leading row dominates and all task columns look alike.
f = decompose("laf", stack, 0.2)
print("LAF latent count K:", f.s.shape[0])
print("mixing matrix S (columns are tasks):")
print(np.array2string(f.s, precision=3, suppress_small=True))

# Unrelated tasks do not compress: ranks stay near full.
loose = np.stack([rng.normal(size=(8, 5)) for _ in range(6)], axis=-1)
print("unrelated tasks at eps=0.2 -> K =", decompose("laf", loose, 0.2).s.shape[0])
