"""Self-tests of the benchmark itself: generator, oracle, tracing, spec.

    python3 bench/selftest.py

Run from anywhere inside a checkout. Takes about half a minute.
"""

import copy
import json
import math
import sys
import unittest

import numpy as np

import run  # first: it puts src/ on sys.path
import gen
import nhrlc
import oracle
import tracing

REF = {"kind": "bp", "alpha": 1.0 / math.sqrt(2.0), "omega0": 1.0, "rlc": None}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in gen.WORKLOADS:
            for ledger in (False, True):
                first = json.dumps(gen.generate(workload, 7, 3, ledger), sort_keys=True)
                self.assertEqual(first, json.dumps(gen.generate(workload, 7, 3, ledger), sort_keys=True))
                self.assertNotEqual(first, json.dumps(gen.generate(workload, 8, 3, ledger), sort_keys=True))

    def test_every_block_has_the_same_mix(self):
        items = gen.generate("report_mix", 3, 4)
        for b in range(4):
            block = items[b * gen.BLOCK:(b + 1) * gen.BLOCK]
            kinds = sorted(p["kind"] for p in block)
            self.assertEqual(kinds, sorted(k for k, n in gen.REPORT_MIX for _ in range(n)))
        shares = gen.class_shares(items)
        self.assertAlmostEqual(shares["side"]["gain"], 4 / 20)
        self.assertAlmostEqual(shares["phase"]["EP"], 5 / 20)
        ledger = gen.class_shares(gen.generate("report_mix", 3, 4, ledger=True))
        self.assertAlmostEqual(ledger["side"]["gain"], 6 / 20)


class OracleTest(unittest.TestCase):
    def test_reference_point_passes(self):
        for workload in gen.WORKLOADS:
            self.assertTrue(run.reference_ok(workload), workload)

    def test_report_flags_nan_and_perturbation(self):
        result = nhrlc.build_report(run._params(REF))
        self.assertEqual(run.check_report(REF, result)[0], None)
        nan = copy.deepcopy(result.report)
        nan["dynamics"]["closed_vs_rk"] = float("nan")
        self.assertFalse(oracle.all_finite(nan))
        self.assertEqual(run.check_report(REF, result._replace(report=nan))[0], "nonfinite")
        for key in ("lambda_plus", "mu_minus"):
            bent = copy.deepcopy(result.report)
            bent["spectral"][key]["re"] *= 1.0 + 1e-6
            self.assertEqual(run.check_report(REF, result._replace(report=bent))[0], "oracle", key)

    def test_plane_flags_perturbation(self):
        out = run.plane_op(REF)
        plain, _ = run._plain(out, oracle.generator(REF["alpha"], REF["omega0"]))
        self.assertIsNone(oracle.check_plane(REF["alpha"], REF["omega0"], plain))
        lam = plain["lambda"]
        plain["lambda"] = (lam[0] * (1.0 + 1e-6), lam[1])
        self.assertIsNotNone(oracle.check_plane(REF["alpha"], REF["omega0"], plain))

    def test_evolve_and_sweep_flag_nan_and_perturbation(self):
        rates = ["--alpha", repr(REF["alpha"]), "--omega0", "1.0"]
        evolve = {"kind": "evolve", "point": REF, "i0": 1.0, "v0": 0.5, "inductance": 2.0,
                  "t_max": 2.0, "dt": 1e-3,
                  "argv": ["evolve", *rates, "--i0", "1.0", "--v0", "0.5", "--L", "2.0",
                           "--t-max", "2.0", "--dt", "0.001", "--method", "all"]}
        code, out, err = run.cli_op(evolve)
        self.assertEqual(run.check_cli(evolve, code, out, err)[0], None)
        lines = out.splitlines()
        row = lines.index(next(ln for ln in lines if ln.endswith(",spectral"))) + 500
        fields = lines[row].split(",")
        fields[1] = repr(float(fields[1]) * (1.0 + 1e-6) + 1e-6)
        bent = "\n".join(lines[:row] + [",".join(fields)] + lines[row + 1:]) + "\n"
        self.assertEqual(run.check_cli(evolve, code, bent, err)[0], "oracle")
        fields[1] = "nan"
        broken = "\n".join(lines[:row] + [",".join(fields)] + lines[row + 1:]) + "\n"
        self.assertEqual(run.check_cli(evolve, code, broken, err)[0], "nonfinite")

        sweep = {"kind": "sweep", "omega0": 1.0, "alpha_min": -1.0, "alpha_max": 2.0, "steps": 31,
                 "argv": ["sweep", "--omega0", "1.0", "--alpha-min", "-1.0", "--alpha-max", "2.0",
                          "--steps", "31"]}
        code, out, err = run.cli_op(sweep)
        self.assertEqual(run.check_cli(sweep, code, out, err)[0], None)
        lines = out.splitlines()
        fields = lines[7].split(",")
        fields[2] = repr(float(fields[2]) * (1.0 + 1e-6))
        bent = "\n".join(lines[:7] + [",".join(fields)] + lines[8:]) + "\n"
        self.assertEqual(run.check_cli(sweep, code, bent, err)[0], "oracle")


def _sample(workload: str) -> list:
    """A few ops of the workload that together reach every traced function."""
    items = gen.generate(workload, 11, 1)
    if workload == "plane_sweep":
        return items
    if workload == "report_mix":
        return [next(p for p in items if p["kind"] == k) for k in ("ep", "bp")]
    wanted = {"mequiv": None, "sweep": None, "analyze": None, "evolve": None}
    for op in items:
        if wanted.get(op["kind"], 0) is None and op.get("point", {}).get("rlc") is None:
            wanted[op["kind"]] = op
    return list(wanted.values())


class TracingTest(unittest.TestCase):
    def test_wrapper_returns_and_raises_what_it_wraps(self):
        sentinel = object()
        tracer = tracing.Tracer()
        self.assertIs(tracer.wrap("x.f", lambda: sentinel)(), sentinel)
        error = ValueError("boom")

        def fails():
            raise error

        with self.assertRaises(ValueError) as caught:
            tracer.wrap("x.g", fails)()
        self.assertIs(caught.exception, error)

    def test_traced_ops_give_identical_outputs_and_reach_every_wrapper(self):
        calls = {}
        for workload in gen.WORKLOADS:
            items = _sample(workload)
            tracer, _, _, _, changed, _ = run.traced_run(workload, items)
            self.assertEqual(changed, 0, workload)
            for name, n in tracer.calls.items():
                calls[name] = calls.get(name, 0) + n
        self.assertEqual([name for name, n in calls.items() if n == 0], [])

    def test_uninstall_restores_every_binding(self):
        before = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("nhrlc")}
        with tracing.Tracer():
            self.assertIsNot(nhrlc.report.eigensystem, before["nhrlc.report"]["eigensystem"])
            self.assertIs(nhrlc.report.eigensystem, nhrlc.spectral.eigensystem)
        for name, attrs in before.items():
            for attr, value in attrs.items():
                self.assertIs(vars(sys.modules[name])[attr], value, f"{name}.{attr}")

    def test_rk4_substep_count_matches_the_integrator(self):
        """Same substeps per interval gives the same states to the last bit."""
        self.assertEqual(tracing.rk4_substeps([0.0, 1.0, 3.0], 0.5), 6)
        h = oracle.generator(0.3, 1.7)
        gen_a = -1j * h
        for times in (np.linspace(0.0, 10.0, 1001), np.linspace(0.0, 10.0, 10001)):
            step = 1e-3
            state = np.array([1.0, -0.3], dtype=complex)
            total = 0
            for a, b in zip(times, times[1:]):
                n = tracing.rk4_substeps([a, b], step)
                total += n
                dt = (b - a) / n
                for _ in range(n):
                    k1 = gen_a @ state
                    k2 = gen_a @ (state + 0.5 * dt * k1)
                    k3 = gen_a @ (state + 0.5 * dt * k2)
                    k4 = gen_a @ (state + dt * k3)
                    state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            got = nhrlc.integrate_rk4(h, [1.0, -0.3], times, step)[-1]
            self.assertTrue(np.array_equal(got, state), (len(times), total))
            self.assertEqual(total, tracing.rk4_substeps(times, step))


class LauncherTest(unittest.TestCase):
    def test_child_reports_its_own_peak_memory(self):
        ballast = b"x" * (64 << 20)  # raise this process's peak well above a child's
        op = _sample("cli_session")[0]
        with run.Launcher() as launcher:
            child = launcher.run(op["argv"])
        self.assertEqual(run.check_cli(op, child["code"], child["out"], child["err"])[0], None)
        self.assertLess(child["maxrss_kib"], 48 << 10)
        del ballast


class SpecTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], [m[0] for m in run.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], run.per_layer_metrics()
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(gen.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
