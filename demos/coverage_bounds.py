#!/usr/bin/env python3
"""Coverage accounting on one dataset: bounds, baselines, and solvers.

Builds a small synthetic sample whose labels mix two informative attributes
with noise, then walks the coverage ladder:

  total weight  >=  total transferable coverage (trace bound)
                >=  channel coverage from any solver
  joint-distribution coverage = what projecting without a channel achieves

and compares every solver algorithm on the same projective tensor. The
transferable-coverage spectrum shows how many attribute directions matter.
"""

import numpy as np

import kgo


def main():
    rng = np.random.default_rng(5)
    m_obs = 400
    x = np.column_stack([np.ones(m_obs), rng.normal(size=(m_obs, 5))])
    f = np.column_stack([
        np.ones(m_obs),
        x[:, 1] + 0.5 * x[:, 2] + 0.2 * rng.normal(size=m_obs),
    ])
    data = kgo.prepare_points(x, f, np.ones(m_obs))

    total = data.total_weight
    ftot = kgo.ftot_upper_bound(data)
    fjdg = kgo.joint_distribution_coverage(data)
    print(f"total weight          <1> = {total:.3f}")
    print(f"transferable coverage FTOT = {ftot:.3f}")
    print(f"joint-distribution    FJDG = {fjdg:.3f}")
    spectrum = kgo.coverage_spectrum(data, "projective")
    print("transferable spectrum:", np.array2string(spectrum, precision=3))

    m_eff = data.f_space.eff_dim
    sub = kgo.contributing_subspace(data, m_eff, "projective")
    tensor = kgo.build_coverage_tensor(kgo.TensorKind.CHRISTOFFEL_PRODUCT,
                                       data, sub)
    embed = kgo.tensors.subspace_embedding(data, sub)
    lsq_init = np.linalg.pinv(embed) @ kgo.lsq_channel(data)
    print(f"\n{'algorithm':20s} {'F':>10s} {'residual':>10s} {'iters':>6s}")
    for algorithm in kgo.ALGORITHMS:
        cfg = kgo.SolverConfig(algorithm=algorithm, max_iterations=60)
        u_init = lsq_init if algorithm == "lsq-adj" else None
        op, _ = kgo.solve(tensor, cfg, u_init)
        assert op.f_value <= ftot + 1e-8
        print(f"{algorithm:20s} {op.f_value:10.4f} {op.residual:10.2e} "
              f"{op.iterations:6d}")
    print("\nevery channel coverage sits below the transferable bound")


if __name__ == "__main__":
    main()
