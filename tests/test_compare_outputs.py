"""tools/compare_outputs.py, the output gate, on stub trees whose degeig.cli
only prints and exits, and on this repository's command list."""

import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               REPO / "tools" / "compare_outputs.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

# prints its directory, its own path and one line the tests vary to stderr
STUB = """import os, sys
print("pairs: 3")
print(os.getcwd(), file=sys.stderr)
print(os.path.dirname(__file__), file=sys.stderr)
print({line!r}, file=sys.stderr)
sys.exit(2)
"""


def stub_tree(root, cli):
    package = root / "src" / "degeig"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(cli)
    return str(root)


def run_both(tmp_path, old_cli, new_cli):
    return [tool.run(stub_tree(tmp_path / side, cli), str(tmp_path / "work" / side), None,
                     ["solve", "--out", tool.OUT])
            for side, cli in (("old", old_cli), ("new", new_cli))]


def test_differing_stderr_line_is_named(tmp_path):
    old, new = run_both(tmp_path, STUB.format(line="numerical failure: ARPACK"),
                        STUB.format(line="numerical failure: no positive eigenvalues"))
    # the run directories and trees differ; their placeholders do not
    assert old.stderr.split("\n")[:2] == ["<run>", "<tree>/src/degeig"]
    assert (old.code, old.stdout, old.raised) == (new.code, new.stdout, new.raised) == (
        2, "pairs: 3\n", False)
    assert tool.compare(old, new) == (2, [
        'stderr line 3: "numerical failure: ARPACK" -> '
        '"numerical failure: no positive eigenvalues"'])
    assert tool.compare(old, old) == (2, [])


def test_deprecation_warning_is_uncaught_exception(tmp_path):
    quiet = "print('done')\n"
    old, new = run_both(tmp_path, quiet, "import warnings\n"
                        "warnings.warn('ode is deprecated', DeprecationWarning)\n" + quiet)
    assert (old.code, old.raised) == (0, False)
    assert new.raised and "DeprecationWarning: ode is deprecated" in new.stderr
    outputs, diffs = tool.compare(old, new)
    assert outputs == 2
    assert diffs[:2] == ["uncaught exception in the new tree", "exit code 0 -> 1"]


def test_commands_hold_the_warning_steps():
    workloads = tool.load_workloads(str(REPO))
    listed = tool.commands(workloads)
    assert len({name for name, _, _ in listed}) == len(listed)
    runs = [(doc, argv) for _, doc, argv in listed]
    for preset in ("ring-n3-a1", "bump-n3-a1", "ball-n3-a1"):
        assert (None, ["oracle", "--preset", preset, "--out", tool.OUT, "--seed", "42"]) in runs
    ring_grid9 = {"problem": {**workloads.grid(9, 6), "weight": {"kind": "ring"}}, "seed": 42}
    assert (ring_grid9, ["solve", "--config", tool.CONFIG, "--out", tool.OUT,
                         "--seed", "42"]) in runs
