#!/usr/bin/env python3
"""Run the bitwise tests under other OpenBLAS kernels, one kernel at a time.

    python3 scripts/kernel_matrix.py [--kernels Haswell Sandybridge Prescott] \\
        [--tests NODE_ID ...]

For each kernel, runs pytest on the tests in a subprocess whose environment
alone sets OPENBLAS_CORETYPE to it, and prints the kernel the child reports
running, then pass, or fail with each failing test id and, for a failure
listed in KNOWN, its cause.  The default tests are the bitwise oracles,
criteria 4 and 9, and the reference pin (tests/data/reference_outputs.json,
which compares by repr under the recording's numpy, BLAS build and kernel,
and to FOREIGN_HOST_TOL under any other).  Exits 1 if any kernel failed a test.
"""

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNELS = ("Haswell", "Sandybridge", "Prescott")
TESTS = (
    "tests/test_acceptance.py::test_criterion_4_label_permutation_invariance",
    "tests/test_acceptance.py::test_criterion_9_reruns_are_byte_identical",
    "tests/test_acceptance.py::test_shipped_shape_outputs_match_the_recorded_reference",
    "tests/test_fisher.py::test_stacked_unit_trace_and_tas_equal_each_row_bitwise",
    "tests/test_matching.py::test_hungarian_on_a_stack_equals_per_matrix_solves",
    "tests/test_nnet.py::test_fisher_diag_equals_the_layerwise_loop_bitwise",
    "tests/test_nnet.py::test_fisher_diag_of_a_stack_is_each_network_alone_bitwise",
    "tests/test_nnet.py::test_lead_sum_equals_add_reduce_along_a_last_axis_bitwise",
    "tests/test_nnet.py::test_slot_major_head_equals_the_episode_major_oracle_bitwise",
    "tests/test_nnet.py::test_stacked_encoder_pass_and_pullback_equal_each_slice_bitwise",
    "tests/test_nnet.py::test_forward_and_backward_on_a_parameter_stack_equal_each_slice_bitwise",
    "tests/test_nnet.py::test_fisher_diag_through_one_held_work_dict_equals_the_allocating_path_bitwise",
    "tests/test_nnet.py::test_train_equals_the_per_minibatch_loop_bitwise",
    "tests/test_nnet.py::test_train_at_the_shipped_shapes_equals_the_per_minibatch_loop_bitwise",
    "tests/test_nnet.py::test_fisher_encode_and_evaluate_at_the_shipped_shapes_equal_the_oracles_bitwise",
    "tests/test_pipeline.py::test_rank_all_sources_equals_serial_oracle_bitwise",
    "tests/test_pipeline.py::test_pool_equals_serial_eps_approx_on_tas_json_bitwise",
    "tests/test_pipeline.py::test_pool_groups_tasks_of_unequal_row_counts_bitwise",
    "tests/test_pipeline.py::test_pool_with_zero_epochs_scores_the_fresh_heads_bitwise",
    "tests/test_pipeline.py::test_chunked_ranking_equals_serial_oracle_bitwise",
    "tests/test_pipeline.py::test_task_scored_alone_equals_it_scored_in_a_block",
    "tests/test_pipeline.py::test_tasks_of_different_row_counts_never_share_a_chunk",
    "tests/test_pipeline.py::test_stacked_phase_3_equals_serial_oracle_bitwise",
    "tests/test_pipeline.py::test_evaluate_fewshot_of_several_networks_equals_each_alone_bitwise",
    "tests/test_pipeline.py::test_lockstep_modes_equal_three_serial_runs_bitwise",
    "tests/test_tasks.py::test_draw_positions_is_the_per_episode_default_rng_loop_bitwise",
    "tests/test_theorem.py::test_noisy_sgd_equals_the_step_by_step_block_loop",
    "tests/test_theorem.py::test_tas_trajectory_equals_the_serial_loop_bitwise",
)
_CHUNKED_ENCODE = ("pipeline._match_sources encodes the training set in ENCODE_CHUNK-row "
                   "products, the oracle each task's rows alone, and under this kernel a "
                   "row's embedding depends on the other rows of its product")
KNOWN = {
    ("Haswell", "test_pool_groups_tasks_of_unequal_row_counts_bitwise"): _CHUNKED_ENCODE,
    ("Haswell", "test_tasks_of_different_row_counts_never_share_a_chunk"): _CHUNKED_ENCODE,
    ("Prescott", "test_stacked_encoder_pass_and_pullback_equal_each_slice_bitwise"): (
        "seed 3's (1, 1, 11) tanh network: its 1x1 first-layer weight gradient, a 15-term "
        "inner product, differs by 8.9e-16 between the stacked product and the slice's own "
        "2-D product, whichever of np.matmul and np.dot makes the latter"),
}
CORE = ("import sys; sys.path.insert(0, sys.argv[1]); import bench_record; "
        "print(bench_record.blas_core())")


def run_kernel(kernel: str, tests: list[str]) -> tuple[str, list[str], str]:
    """The kernel the child reports, the failing test ids, and pytest's last line."""
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    core = subprocess.run([sys.executable, "-c", CORE, os.path.join(ROOT, "scripts")],
                          capture_output=True, text=True, env=env).stdout.strip()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-rfE", *tests],
                          cwd=ROOT, capture_output=True, text=True, env=env)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) and not failed:
        failed = [f"pytest exited {proc.returncode}"]
    return core, failed, lines[-1] if lines else ""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kernels", nargs="+", default=list(KERNELS), help="OPENBLAS_CORETYPE values")
    ap.add_argument("--tests", nargs="+", default=list(TESTS), help="pytest node ids")
    args = ap.parse_args()
    any_failed = False
    for kernel in args.kernels:
        core, failed, last = run_kernel(kernel, args.tests)
        verdict = f"FAIL, {len(failed)} failed" if failed else "pass"
        print(f"{kernel} (child runs {core}): {verdict}; {last}", flush=True)
        for test_id in failed:
            cause = KNOWN.get((kernel, test_id.split("::")[-1].split("[")[0]))
            print(f"  {test_id}" + (f": {cause}" if cause else ""))
        any_failed = any_failed or bool(failed)
    sys.exit(1 if any_failed else 0)


if __name__ == "__main__":
    main()
