"""Hand-run mutation check of the stated tolerances and rules.

Each mutant replaces one line's text in one source file. For each, the script
copies src/, tests/, configs/, pyproject.toml and README.md (which
tests/test_readme.py reads) to a temporary directory, applies the mutant
there, runs `pytest -x -q` on the copy and prints whether the suite killed it
(a test failed: exit 1), let it survive (exit 0) or errored (any other exit,
such as 2 for a collection error, 3 for an internal error or 5 for no tests),
with the exit code. The run fails unless every mutant is
killed. The repository is never modified. A full run takes about 6 minutes on
2 cores.

    python tests/mutants.py            # run every mutant
    python tests/mutants.py --check    # only check that each mutant still applies

`--check` confirms that each mutant's original text occurs exactly once in its
file, so that an edit which moves or rewrites a mutated line fails at once
instead of leaving this list stale. pytest does not collect this file.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "configs", "pyproject.toml", "README.md")

# (name, file under src/qrevival, original text, mutated text)
MUTANTS = (
    ("revival rule d > eps to >=", "memory_metric.py",
     "ups = np.flatnonzero(d > epsilon)", "ups = np.flatnonzero(d >= epsilon)"),
    ("EIG_FLOOR -1e-6 to -1e-3", "dynamics.py", "EIG_FLOOR = -1e-6", "EIG_FLOOR = -1e-3"),
    ("HERM_TOL 1e-9 to 1e-3", "dynamics.py", "HERM_TOL = 1e-9", "HERM_TOL = 1e-3"),
    ("TRACE_TOL 1e-9 to 1e-3", "dynamics.py", "TRACE_TOL = 1e-9", "TRACE_TOL = 1e-3"),
    ("RK4 dt^4/24 to dt^4/25", "dynamics.py", "dt ** 4 / 24.0", "dt ** 4 / 25.0"),
    ("Adam EPS 1e-8 to 1e-6", "mlp.py",
     "BETA1, BETA2, EPS = 0.9, 0.999, 1e-8", "BETA1, BETA2, EPS = 0.9, 0.999, 1e-6"),
    ("Adam beta1 0.9 to 0.8", "mlp.py",
     "BETA1, BETA2, EPS = 0.9, 0.999, 1e-8", "BETA1, BETA2, EPS = 0.8, 0.999, 1e-8"),
    ("Adam beta2 0.999 to 0.99", "mlp.py",
     "BETA1, BETA2, EPS = 0.9, 0.999, 1e-8", "BETA1, BETA2, EPS = 0.9, 0.99, 1e-8"),
    ("clamp ceiling to 2 cap", "dynamics.py",
     "neginf=0.0), 0.0, self.rate_clamp)", "neginf=0.0), 0.0, 2 * self.rate_clamp)"),
    ("run starts broken", "dynamics.py",
     "starts[::BLOCK] = True", "starts[::BLOCK] = True; starts[1::7] = False"),
    ("split_index to (n + 1) // 2", "dataset.py",
     "return len(self) // 2", "return (len(self) + 1) // 2"),
    ("backward loses its factor 2", "mlp.py",
     "r = np.divide(r, r.shape[-1] / 2, out=r)", "r = np.divide(r, r.shape[-1], out=r)"),
    ("segment rule d > 0 to >=", "memory_metric.py", "rising = d > 0", "rising = d >= 0"),
    ("run-all mismatch check without train", "cli.py",
     "or ad_cfg.window_len != rtn_cfg.window_len or ad_cfg.train != rtn_cfg.train):",
     "or ad_cfg.window_len != rtn_cfg.window_len):"),
    ("load_params without its finiteness check", "mlp.py",
     "if not np.all(np.isfinite(p.vec)):", "if False:"),
    ("RevivalReport peak bound >= to >", "memory_metric.py",
     "if t2 >= self.n_eval:", "if t2 > self.n_eval:"),
    ("clamp_events != to <", "dynamics.py",
     "np.count_nonzero(clamped != raw)", "np.count_nonzero(clamped < raw)"),
    ("dataset reader without its split check", "dataset.py",
     "if list(split) != _split_column(ds):", "if False:"),
    ("adam_step without its finiteness check", "mlp.py",
     "if not np.isfinite(p.vec).all():", "if False:"),
    ("Trajectory dt agreement 1e-11 to 1e-3", "dynamics.py",
     "drift > 1e-11 *", "drift > 1e-3 *"),
    ("Z_BOUND 1 + 1e-6 to 1 + 1e-2", "dynamics.py", "Z_BOUND = 1.0 + 1e-6", "Z_BOUND = 1.0 + 1e-2"),
    ("power-cache key reduced to the node rate", "dynamics.py",
     "(key := step_rates[:, j].tobytes())", "(key := step_rates[0, j].tobytes())"),
    ("channel without its oscillator overflow check", "dynamics.py",
     "if not (math.isfinite(a * a) and math.isfinite(w2)):", "if False:"),
    ("fd_gradients shifts a pre-activation by h, not h u[c]", "mlp.py",
     "z2[:, None] + sh * u2", "z2[:, None] + sh * np.ones_like(u2)"),
    ("fd_gradients drops the ReLU from the changed unit", "mlp.py",
     "np.maximum(z1[:, None] + sh * u1, _ZERO) - u2[:-1, None]",
     "z1[:, None] + sh * u1 - z1[:, None]"),
    ("clamp_events bound 2 n - 1 to 2 n", "dynamics.py", "max(2 * n - 1, 0)", "max(2 * n, 0)"),
    ("positivity pivot test > 0 to >=", "dynamics.py",
     "_min_pivot(v[:i]) > 0.0", "_min_pivot(v[:i]) >= 0.0"),
    ("hermiticity pairs without the diagonal", "dynamics.py",
     "for i in range(4) for j in range(i + 1)", "for i in range(4) for j in range(i)"),
    ("read_table without its row-width check", "table.py",
     'if set(map(str.count, lines, itertools.repeat(","))) != {k - 1}:', "if False:"),
    ("dataset series without its shift check", "dataset.py",
     "if xcols[j][:-1] != xcols[j - 1][1:]:", "if False:"),
    ("dataset series tail from the first row", "dataset.py",
     "*(c[-1] for c in xcols[1:] if c)", "*(c[0] for c in xcols[1:] if c)"),
    # the physics and the learning, not only their checks
    ("Hamiltonian XX + YY to XX - YY", "dynamics.py",
     "np.kron(la.X, la.X) + np.kron(la.Y, la.Y)", "np.kron(la.X, la.X) - np.kron(la.Y, la.Y)"),
    ("dissipator anticommutator 1/2 to 1/4", "dynamics.py",
     "np.kron(j, j.conj()) - 0.5 * (", "np.kron(j, j.conj()) - 0.25 * ("),
    ("RTN w2 4 v^2 to 3.9 v^2", "dynamics.py",
     "return self.kappa, 4.0 * self.v * self.v, 0.5",
     "return self.kappa, 3.9 * self.v * self.v, 0.5"),
    ("RTN rate scale 0.5 to 0.45", "dynamics.py",
     "return self.kappa, 4.0 * self.v * self.v, 0.5",
     "return self.kappa, 4.0 * self.v * self.v, 0.45"),
    ("AD rate scale 2 to 1.9", "dynamics.py",
     "return self.b / 2.0, self.lam / 2.0, 2.0", "return self.b / 2.0, self.lam / 2.0, 1.9"),
    ("AD jump sigma- to sigma+", "dynamics.py",
     "A_AD = np.kron(la.I2, la.SIGMA_MINUS)", "A_AD = np.kron(la.I2, la.SIGMA_MINUS.T)"),
    ("tilt sqrt(0.81) to sqrt(0.8)", "dynamics.py",
     "TILT_EXCITED_AMPLITUDE = math.sqrt(0.81)", "TILT_EXCITED_AMPLITUDE = math.sqrt(0.8)"),
    ("plus_excited ancilla ket excited to ground", "dynamics.py",
     "STATE_PLUS_EXCITED: (la.KET_PLUS, la.KET0),", "STATE_PLUS_EXCITED: (la.KET_PLUS, la.KET1),"),
    ("label taken at the window's end", "dataset.py",
     "ys=traj.z_s[window_len:]", "ys=traj.z_s[window_len - 1:-1]"),
    ("window shifted onto the label's time", "dataset.py",
     "sliding_window_view(traj.z_a[:-1], window_len)",
     "sliding_window_view(traj.z_a[1:], window_len)"),
    ("Adam without bias correction", "mlp.py",
     "c1, root_c2 = 1.0 - BETA1 ** t, math.sqrt(1.0 - BETA2 ** t)", "c1, root_c2 = 1.0, 1.0"),
    ("Adam eps without sqrt(c2)", "mlp.py",
     "np.add(np.sqrt(v, out=b), EPS * root_c2, out=b)", "np.add(np.sqrt(v, out=b), EPS, out=b)"),
    ("init scale sqrt(1/fan) to sqrt(2/fan)", "mlp.py",
     "s = math.sqrt(1.0 / (a.shape[1] - 1))", "s = math.sqrt(2.0 / (a.shape[1] - 1))"),
    ("training without its shuffle", "mlp.py",
     "np.take(data, rng.permutation(n),", "np.take(data, np.arange(n),"),
    ("training ignores lr", "mlp.py",
     "m, v, t, cfg.lr, buf)", "m, v, t, 1e-3, buf)"),
    ("loss curve one epoch off", "mlp.py",
     "curve[:, epoch] =", "curve[:, epoch - 1] ="),
    ("H1 32 to 31", "mlp.py", "H1 = 32", "H1 = 31"),
    ("epochs default 500 to 499", "mlp.py", "epochs: int = 500", "epochs: int = 499"),
    ("batch_size default 32 to 16", "mlp.py", "batch_size: int = 32", "batch_size: int = 16"),
    ("predictions scaled by 1 + 1e-9", "mlp.py",
     "return forward(p, columns(xs))[0][0]", "return forward(p, columns(xs))[0][0] * (1 + 1e-9)"),
)


def _source(root, name):
    return os.path.join(root, "src", "qrevival", name)


def check() -> list:
    """The mutants whose original text does not occur exactly once in its file."""
    stale = []
    for name, path, original, _ in MUTANTS:
        with open(_source(ROOT, path)) as f:
            if f.read().count(original) != 1:
                stale.append(name)
    return stale


def _copy(dst):
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dst, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, dst)


def _suite_exit(root) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                          cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode


def outcome(code: int) -> str:
    """A mutant's outcome from the exit code of the suite run on it."""
    return {0: "survived", 1: "killed"}.get(code, f"errored (exit {code})")


def run() -> int:
    """Run every mutant; 1 unless each is killed."""
    with tempfile.TemporaryDirectory() as tmp:
        _copy(tmp)
        code = _suite_exit(tmp)
        if code != 0:
            print(f"the suite fails without a mutant (exit {code}); nothing to measure")
            return 1
    missed = []
    for name, path, original, mutated in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            _copy(tmp)
            with open(_source(tmp, path)) as f:
                text = f.read()
            with open(_source(tmp, path), "w") as f:
                f.write(text.replace(original, mutated))
            result = outcome(_suite_exit(tmp))
        print(f"{result:8}  {path:17} {name}", flush=True)
        if result != "killed":
            missed.append(name)
    return 1 if missed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="only check that each mutant's original text occurs once")
    if parser.parse_args(argv).check:
        stale = check()
        for name in stale:
            print(f"stale mutant: {name}")
        return 1 if stale else 0
    return run()


if __name__ == "__main__":
    sys.exit(main())
