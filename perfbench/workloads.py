"""The benchmark's workloads: inputs from a seed, operations, output checks.

A workload has three parts:

* ``setup(seed)`` makes the inputs (coordinates, weights, seeds) from the
  workload seed, with concdim's generators where a family fits;
* ``ops(inp, out_dir)`` yields ``(name, thunk)`` pairs, one per top-level
  call into concdim, and builds fresh spaces from the inputs as it goes, so
  every round does the same work (no caches carry over between rounds);
* ``checks(inp, outs)`` yields ``(name, check)`` pairs; each check returns
  the problems with the output of operation `name`, using only
  :mod:`checks`, which computes apart from concdim, or properties the
  method must have.  A check that compares two operations is filed under
  the later one.

Every concdim call goes through a module attribute (``mm.char_size``), so
the tracer's wrappers see it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import checks as ck
from concdim import cli, concentration as conc, covering as cov
from concdim import dimension as dim, features as feat, mmspace as mm
from concdim import transport as tr


def _seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(2**31, size=k)]


def _experiment(name: str, seed: int, params: dict, out_dir: Path) -> dict:
    """Run a named experiment through the CLI and read back what it wrote."""
    argv = ["experiment", "--name", name, "--seed", str(seed), "--out", str(out_dir)]
    for k, v in params.items():
        argv += ["--param", f"{k}={v}"]
    code = cli.main(argv)
    out = {"exit": code, "manifest": None, "rows": None}
    if code == 0:
        with open(out_dir / "manifest.json", encoding="utf-8") as fh:
            out["manifest"] = json.load(fh)
        curve = out["manifest"]["summary"]["curves"][0]
        with open(out_dir / curve, newline="") as fh:
            out["rows"] = list(csv.DictReader(fh))
    return out


def _exit_ok(res: dict) -> list[str]:
    return [] if res["exit"] == 0 else [f"CLI exited with code {res['exit']}"]


class NoiseRows:
    """Criterion 7's noise experiment and a 10^4-point char_size.

    Both spaces exceed ``AUTO_DENSE`` and are never materialized, so every
    distance row is recomputed; nothing here runs the oracles or the LP.
    """

    name = "noise_rows"
    round_s = 28.5  # reference round length, see README
    n, d = 10_000, 50
    min_distance = 1.0

    def setup(self, seed: int) -> dict:
        exp_seed, cloud_seed = _seeds(seed, 2)
        cloud = mm.generate(mm.GeneratorSpec(
            "gaussian_cloud", cloud_seed, {"d": self.d, "sigma": 1.0, "n": self.n}))
        return {"exp_seed": exp_seed, "cloud": cloud.coords}

    def ops(self, inp: dict, out_dir: Path):
        yield "noise_instability", lambda: _experiment(
            "noise_instability", inp["exp_seed"], {"n_seeds": 1}, out_dir / "noise")
        space = mm.from_points(inp["cloud"])
        yield "char_size", lambda: mm.char_size(space)

    def noise_cloud(self, root: int, index: int) -> np.ndarray:
        """The cloud the experiment draws for one seed index, sigma^2 = 1/d."""
        seed = int(np.random.SeedSequence([root, index]).generate_state(1)[0])
        return np.random.default_rng(seed).normal(
            0.0, math.sqrt(1.0 / self.d), size=(self.n, self.d))

    def check_noise(self, inp: dict, res: dict) -> list[str]:
        out = _exit_ok(res)
        for row in res["rows"] or []:
            x = self.noise_cloud(inp["exp_seed"], int(row["seed_index"]))
            out += ck.check_greedy_coverage(x, self.min_distance,
                                            float(row["separated_coverage"]))
            out += ck.check_dim_claim(float(row["dim_separation"]))
        return out

    def checks(self, inp: dict, outs: dict):
        if "noise_instability" in outs:
            yield "noise_instability", lambda: self.check_noise(
                inp, outs["noise_instability"])
        if "char_size" in outs:
            yield "char_size", lambda: ck.check_pair_order_stat(
                inp["cloud"], outs["char_size"], (self.n * self.n + 1) // 2)


class SphereDense:
    """Criterion 6's sphere computations at n=5000.

    Each space stays below ``AUTO_DENSE``: its first ``diameter`` or
    ``char_size`` materializes the distance matrix and later witnesses read
    it.  Spaces are dropped after use, as criterion 6 does, so at most one
    matrix is alive at a time.
    """

    name = "sphere_dense"
    round_s = 5.0
    n = 5000
    obs_kappa = 1e-2
    bracket_dims = (1, 2, 3)
    u_grid = np.geomspace(0.1, 2.0, 16)

    def setup(self, seed: int) -> dict:
        dims = (25, 100, *self.bracket_dims)
        s = _seeds(seed, 11)
        coords = {k: mm.generate(mm.GeneratorSpec(
            "sphere", s[i], {"n_dim": k, "n": self.n})).coords
            for i, k in enumerate(dims)}
        rng = np.random.default_rng(s[10])
        centers = {k: rng.choice(self.n, 12, replace=False) for k in self.bracket_dims}
        return {"coords": coords, "dict_seeds": dict(zip(dims, s[5:10])),
                "centers": centers}

    def _obsdiam(self, space, seed: int):
        feats = feat.dictionary(space, "anchors_random", k=32, seed=seed)
        return conc.observable_diameter(space, self.obs_kappa, feats), \
            [f.name for f in feats]

    def _bracket(self, space, seed: int, centers):
        feats = feat.dictionary(space, "anchors_random", k=12, seed=seed)
        grid = np.linspace(0.0, mm.diameter(space), 121)
        prof = conc.alpha_lower(space, grid, dictionary=feats, ball_centers=centers)
        return prof, [f.name for f in feats]

    def ops(self, inp: dict, out_dir: Path):
        c, ds = inp["coords"], inp["dict_seeds"]
        s25 = mm.from_points(c[25])
        yield "char_size_s25", lambda: mm.char_size(s25)
        yield "obsdiam_s25", lambda: self._obsdiam(s25, ds[25])
        yield "dim_chavez_s25", lambda: dim.dim_chavez(s25)
        del s25
        s100 = mm.from_points(c[100])
        yield "obsdiam_s100", lambda: self._obsdiam(s100, ds[100])
        del s100
        for k in self.bracket_dims:
            s = mm.from_points(c[k])
            yield f"alpha_lower_s{k}", lambda s=s, k=k: self._bracket(
                s, ds[k], inp["centers"][k])
            if k == 2:
                yield "covering_profile_s2", lambda s=s: cov.covering_profile(s, self.u_grid)
                yield "greedy_net_s2", lambda s=s: cov.greedy_net(s, float(self.u_grid[0]))
            del s

    def checks(self, inp: dict, outs: dict):
        c = inp["coords"]
        if "char_size_s25" in outs or "dim_chavez_s25" in outs:
            median, dist = ck.lower_median_pairs(c[25])
            if "char_size_s25" in outs:
                yield "char_size_s25", lambda: ck.check_sphere_char_size(
                    outs["char_size_s25"], median)
            if "dim_chavez_s25" in outs:
                yield "dim_chavez_s25", lambda dist=dist: ck.check_chavez(
                    outs["dim_chavez_s25"], dist)
            del dist
        for k in (25, 100):
            if f"obsdiam_s{k}" in outs:
                value, names = outs[f"obsdiam_s{k}"]
                yield f"obsdiam_s{k}", lambda value=value, names=names, k=k: \
                    ck.check_obs_diameter(c[k], ck.anchor_ids(names), self.obs_kappa, value)
        if "obsdiam_s25" in outs and "obsdiam_s100" in outs:
            yield "obsdiam_s100", lambda: ck.check_obs_ratio(
                outs["obsdiam_s100"][0], outs["obsdiam_s25"][0])
        lows = {}
        for k in self.bracket_dims:
            op = f"alpha_lower_s{k}"
            if op not in outs:
                continue
            prof, names = outs[op]
            lows[k] = ck.bracket_lower_end(prof.eps_grid, prof.alpha, prof.diameter)
            witnesses = ck.anchor_ids(names) + [int(i) for i in inp["centers"][k]]
            yield op, lambda k=k, prof=prof, witnesses=witnesses: (
                ck.check_alpha_envelope(c[k], witnesses, prof.eps_grid,
                                        prof.diameter, prof.alpha)
                + ck.check_resolved(ck.mean_nn_spacing(c[k]), lows[k]))
        if len(lows) == len(self.bracket_dims):
            yield f"alpha_lower_s{self.bracket_dims[-1]}", lambda: \
                ck.check_strictly_decreasing(list(lows.values()),
                                             "certified lower ends S^1..S^3")
        if "greedy_net_s2" in outs:
            yield "greedy_net_s2", lambda: ck.check_net(
                c[2], float(self.u_grid[0]), outs["greedy_net_s2"])
            if "covering_profile_s2" in outs:
                yield "covering_profile_s2", lambda: ck.check_count(
                    int(outs["covering_profile_s2"].n_upper[0]),
                    len(outs["greedy_net_s2"]), "n_upper at the smallest radius")


class ExactSmall:
    """Exponential oracles, cube combinatorics, the transport LP and
    criterion 9's experiment; the distance layer only indexes small
    matrices here."""

    name = "exact_small"
    round_s = 15.5
    kappa_grid = np.arange(1, 51) / 100.0
    hamming_dims = (40, 50)
    n_emd = 300
    emd_units = 900  # measures are integer counts over this total

    def setup(self, seed: int) -> dict:
        s = _seeds(seed, 6)
        rng = np.random.default_rng(s[0])
        m = rng.uniform(0.5, 1.0, size=(9, 9))
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        w = rng.random(9) + 0.25
        counts = [1 + rng.multinomial(self.emd_units - self.n_emd,
                                      np.full(self.n_emd, 1.0 / self.n_emd))
                  for _ in range(2)]
        return {
            "n20": mm.generate(mm.GeneratorSpec(
                "gaussian_cloud", s[1], {"d": 3, "sigma": 1.0, "n": 20})).coords,
            "n9": m, "w9": w / w.sum(),
            "emd_points": mm.generate(mm.GeneratorSpec(
                "gaussian_cloud", s[2], {"d": 3, "sigma": 1.0, "n": self.n_emd})).coords,
            "counts": counts,
            "sep_seed": s[3], "exp_seed": s[4],
        }

    def _oracle_ops(self, tag: str, space, sep_seed: int):
        yield f"alpha_exact_profile_{tag}", lambda: conc.alpha_exact_profile(space)
        yield f"sep_exact_profile_{tag}", lambda: conc.sep_exact_profile(
            space, self.kappa_grid)
        yield f"alpha_lower_{tag}", lambda: conc.alpha_lower(space, np.unique(space.dist))
        yield f"sep_lower_{tag}", lambda: conc.sep_lower(
            space, self.kappa_grid, restarts=4, seed=sep_seed)

    def _spaces(self, inp: dict) -> dict:
        return {"n20": mm.from_points(inp["n20"]),
                "n9": mm.from_distance_matrix(inp["n9"], weights=inp["w9"])}

    def ops(self, inp: dict, out_dir: Path):
        for tag, space in self._spaces(inp).items():
            yield from self._oracle_ops(tag, space, inp["sep_seed"])
        for d in self.hamming_dims:
            yield f"sep_hamming_profile_d{d}", lambda d=d: conc.sep_hamming_profile(d)
        points = mm.from_points(inp["emd_points"])
        mu, nu = (c / self.emd_units for c in inp["counts"])
        yield "emd_n300", lambda: tr.emd(points, mu, nu).cost
        yield "sampling_convergence", lambda: _experiment(
            "sampling_convergence", inp["exp_seed"], {}, out_dir / "sampling")

    def _oracle_checks(self, tag: str, space, outs: dict):
        a_op, s_op = f"alpha_exact_profile_{tag}", f"sep_exact_profile_{tag}"
        if a_op in outs and s_op in outs:
            a, s = outs[a_op], outs[s_op]
            yield s_op, lambda: ck.check_cross_inequalities(
                a.eps_grid, a.alpha, s.kappa_grid, s.sep,
                lambda k: conc.sep_exact(space, k), a.diameter)
        if a_op in outs and f"alpha_lower_{tag}" in outs:
            yield f"alpha_lower_{tag}", lambda: ck.check_below(
                outs[f"alpha_lower_{tag}"].alpha, outs[a_op].alpha, "alpha_lower")
        if s_op in outs and f"sep_lower_{tag}" in outs:
            yield f"sep_lower_{tag}", lambda: ck.check_below(
                outs[f"sep_lower_{tag}"].sep, outs[s_op].sep, "sep_lower")

    def checks(self, inp: dict, outs: dict):
        for tag, space in self._spaces(inp).items():
            yield from self._oracle_checks(tag, space, outs)
        m, w = inp["n9"], inp["w9"]
        if "alpha_exact_profile_n9" in outs:
            a = outs["alpha_exact_profile_n9"]
            yield "alpha_exact_profile_n9", lambda: ck.check_equal(
                a.eps_grid, np.unique(m), "alpha grid") + ck.check_equal(
                a.alpha, ck.naive_alpha(m, w, a.eps_grid), "alpha_exact_profile")
        if "sep_exact_profile_n9" in outs:
            s = outs["sep_exact_profile_n9"]
            yield "sep_exact_profile_n9", lambda: ck.check_equal(
                s.sep, ck.naive_sep(m, w, s.kappa_grid), "sep_exact_profile")
        for d in self.hamming_dims:
            op = f"sep_hamming_profile_d{d}"
            if op in outs:
                yield op, lambda d=d, p=outs[op]: ck.check_harper(d, p.kappa_grid, p.sep)
        if "emd_n300" in outs:
            yield "emd_n300", lambda: ck.check_emd(
                inp["emd_points"], *inp["counts"], outs["emd_n300"])
        if "sampling_convergence" in outs:
            res = outs["sampling_convergence"]
            yield "sampling_convergence", lambda: _exit_ok(res) + (
                ck.check_sampling_convergence(res["rows"], res["manifest"]["summary"])
                if res["exit"] == 0 else [])


WORKLOADS = {w.name: w for w in (NoiseRows(), SphereDense(), ExactSmall())}
