"""Apply the checks of ``checks.py`` to the outputs a benchmark run kept.

An output is identified by its key (command, scenario, exit code, digest of
its files); each distinct output is checked once.  Claims that tie two
outputs of one pass together (soundness of a certificate against the pole
oracle, one broadcast grid code, the settling-time ratio of the case study)
are checked per pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed, require

THEOREM = {"check_thm1": 1, "check_thm2": 2, "cli_cold": 2}


class Verifier:
    def __init__(self, scenarios: dict[str, Path], outputs: dict[tuple, list[Path]]):
        self.scenarios = scenarios
        self.outputs = outputs
        self.messages: list[str] = []
        self._grids: dict[str, checks.Grid] = {}
        self._u_star: dict[str, tuple] = {}
        self._facts: dict[tuple, object] = {}    # key -> verdict, poles, grid codes or settling time
        self._pass_results: dict[tuple, set] = {}

    def grid(self, scenario: str) -> checks.Grid:
        if scenario not in self._grids:
            self._grids[scenario] = checks.Grid.from_file(self.scenarios[scenario])
        return self._grids[scenario]

    def operating_point(self, scenario: str) -> tuple:
        """The program's resolved operating point, checked here against the
        current balance of the line list and device laws."""
        if scenario not in self._u_star:
            from dstab.scenario import load_scenario, resolve_equilibrium

            eq = resolve_equilibrium(load_scenario(self.scenarios[scenario]))
            residual = self.grid(scenario).power_flow_residual(np.array(eq.u_star))
            require(residual <= 1e-6, f"{scenario}: operating point violates current balance by {residual:.3e} A")
            self._u_star[scenario] = eq.u_star
        return self._u_star[scenario]

    # -- one output --------------------------------------------------------

    def check_output(self, key: tuple) -> bool:
        command, scenario, rc, _ = key
        try:
            self._facts[key] = self._check(command, scenario, rc, self.outputs[key])
            return True
        except Exception as exc:  # a malformed output fails its operation, whatever the error
            kind = "" if isinstance(exc, CheckFailed) else f"{type(exc).__name__}: "
            self.messages.append(f"{command} {scenario}: {kind}{exc}")
            return False

    def _check(self, command: str, scenario: str, rc: int, files: list[Path]):
        grid = self.grid(scenario)
        if command == "simulate":
            return self._check_simulation(scenario, grid, files)
        text = files[0].read_text()
        if command == "poles":
            poles = checks.check_poles(text, rc, grid)
            if scenario == "ieee39_default":
                worst = checks.worst_margin(poles, grid)
                require(worst < -checks.MARGIN_TOL, f"default grid: oracle finds every pole inside (worst {worst:.6g})")
            return poles
        report = json.loads(text)
        if command == "gridcode":
            return checks.check_gridcode(report, rc, grid, self.operating_point(scenario))
        if command in THEOREM:
            verdict = checks.check_certificate(report, rc, THEOREM[command], grid)
            if scenario == "ieee39_synthesized":
                require(verdict, f"synthesized grid: {command} does not certify")
            return verdict
        if command == "synthesize":
            compliant = checks.check_synthesize(report, rc, grid)
            if scenario == "ieee39_synthesized":
                require(compliant, "synthesized grid: synthesize is not all-compliant")
            return report["grid_codes"]
        if command == "positivity":
            return checks.check_positivity(report, rc, grid)
        raise CheckFailed(f"no check for command {command}")

    def _check_simulation(self, scenario: str, grid: checks.Grid, files: list[Path]) -> float:
        from dstab.scenario import build_model, load_scenario

        sim = grid.raw["simulation"]
        steps = round(sim["t_end_s"] / sim["dt_s"])
        traj = checks.parse_csv(files[0].read_text(), grid.n, steps)
        model = build_model(load_scenario(self.scenarios[scenario]))
        tfs = [([c.real for c in g.num.coeffs], [c.real for c in g.den.coeffs]) for g in model.subsystems]
        dist = grid.raw["disturbance"]
        node = dist["node"] - 1
        u_star = model.equilibrium_u[node]
        amps = dist["magnitude"] * grid.devices[node]["P_watt"] / u_star
        checks.check_trajectory(traj, grid, tfs, (node, amps))
        checks.check_sim_metrics(json.loads(files[1].read_text()), traj, grid)
        if scenario == "ieee39_synthesized":
            t_off = dist["start_s"] + dist["duration_s"]
            rate = checks.decay_rate(traj, t_off + 0.05, t_off + 0.55)
            require(rate >= checks.MIN_DECAY_RATE,
                    f"synthesized grid: deviation envelope decays at {rate:.3g}/s < {checks.MIN_DECAY_RATE}/s")
        return checks.settling(traj, sim["band"])[0]

    # -- one pass ----------------------------------------------------------

    def check_pass(self, keys: dict[tuple, tuple | None]) -> set:
        """Cross-output claims of one pass; ``keys`` maps (command, scenario)
        to the output key (None if the operation failed).  Returns failed keys."""
        signature = tuple(sorted((k, v) for k, v in keys.items() if v is not None))
        if signature not in self._pass_results:
            self._pass_results[signature] = self._check_pass(keys)
        return self._pass_results[signature]

    def _fact(self, keys, command, scenario):
        key = keys.get((command, scenario))
        return (key, self._facts[key]) if key in self._facts else (None, None)

    def _check_pass(self, keys) -> set:
        failed = set()
        scenarios = {s for _, s in keys}
        for scenario in scenarios:
            _, poles = self._fact(keys, "poles", scenario)
            for command in ("check_thm1", "check_thm2", "cli_cold"):
                key, verdict = self._fact(keys, command, scenario)
                if key is not None and poles is not None:
                    self._cross(failed, key, lambda: checks.check_soundness(verdict, poles, self.grid(scenario)))
            syn_key, syn_codes = self._fact(keys, "synthesize", scenario)
            code_key = keys.get(("gridcode", scenario))
            if syn_key is not None and code_key in self._facts:
                codes = json.loads(self.outputs[code_key][0].read_text())["grid_codes"]
                self._cross(failed, syn_key, lambda: require(
                    syn_codes == codes, "synthesize and gridcode broadcast different grid codes"))
        default_key, default = self._fact(keys, "simulate", "ieee39_default")
        tuned_key, tuned = self._fact(keys, "simulate", "ieee39_synthesized")
        if default is not None and tuned is not None:
            self._cross(failed, tuned_key, lambda: require(
                tuned * 2 < default, f"settling {default:.4g} s -> {tuned:.4g} s is not more than 2x shorter"))
        return failed

    def _cross(self, failed: set, key: tuple, check) -> None:
        try:
            check()
        except CheckFailed as exc:
            self.messages.append(f"{key[0]} {key[1]}: {exc}")
            failed.add(key)
