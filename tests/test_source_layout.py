"""What lives where: code that only tests use stays under tests/, only
`textio` opens and parses text files, the runtime reads no environment,
needs numpy alone and loads none of scipy, numpy.ma or, outside `synth`,
numpy.random; the README's config table lists the config keys."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lod3recon import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lod3recon"

# public functions that nothing in src/ or perfbench/ reaches but that may
# stay anyway
ALLOWED = set()


def _public_functions(tree, module):
    """(qualified name, name, is a method) of each public function."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, False
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{module}.{node.name}.{sub.name}", sub.name, True


def test_src_holds_no_test_only_function():
    # perfbench/ counts: it is the one reader of evaluate.read_metrics
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    names, attributes = set(), set()
    defined = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
        if path.parent == PACKAGE:
            defined.extend(_public_functions(tree, path.stem))
    # a method is reached only as an attribute; a bare name such as the
    # builtin `reversed` does not reach `Ring.reversed`
    unused = sorted(qualified for qualified, name, method in defined
                    if not name.startswith("_") and qualified not in ALLOWED
                    and name not in attributes
                    and (method or name not in names))
    assert unused == []


@pytest.mark.parametrize("name", ["open", "loadtxt"])
def test_only_textio_opens_and_parses_text_files(name):
    users = sorted(path.name for path in PACKAGE.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if getattr(node, "id", getattr(node, "attr", None)) == name)
    assert set(users) <= {"textio.py"}


def test_src_imports_only_numpy_and_the_standard_library():
    allowed = {"lod3recon", "numpy"} | set(sys.stdlib_module_names)
    outside = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside |= {f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in allowed}
    assert sorted(outside) == []


def test_src_reads_no_environment():
    # every setting is a config key or an option
    readers = sorted(f"{path.name}:{node.lineno}" for path in PACKAGE.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if getattr(node, "attr", getattr(node, "name", None))
                     in ("environ", "getenv"))
    assert readers == []


def test_readme_config_table_lists_the_config_keys():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("| group | keys |\n", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`", table)) == set(cli._CONFIG_KEYS)


def _last_line(code, *args):
    """The last line `code` prints, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_entry_points_load_no_scipy():
    assert _last_line("import sys, lod3recon.cli, lod3recon.synth, lod3recon.evaluate\n"
                      "print(sorted(m for m in sys.modules"
                      " if m == 'scipy' or m.startswith('scipy.')))") == "[]"


def test_only_synth_uses_numpy_random():
    # the evaluate stage samples the model on a fixed lattice, drawing no stream
    users = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [f"{getattr(node.value, 'id', '')}.{node.attr}"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n.startswith(("np.random", "numpy.random")) for n in names):
                users.add(path.name)
    assert sorted(users) == ["synth.py"]


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """A seed-7 scene and its pipeline run; synth loads numpy.random, so it
    runs here and not in the process under test."""
    out = tmp_path_factory.mktemp("demo")
    assert cli.main(["synth", "--out", str(out), "--seed", "7"]) == 0
    assert cli.main(["pipeline", "--config", str(out / "scene.cfg")]) == 0
    return out


RUNS = {
    "pipeline": lambda d: ["pipeline", "--config", d / "scene.cfg",
                           "--out-dir", d / "again"],
    "evaluate": lambda d: ["evaluate", "--pred", d / "artifacts" / "instances.txt",
                           "--gt", d / "gt_instances.txt",
                           "--model", d / "artifacts" / "model.txt",
                           "--gt-model", d / "artifacts" / "model.txt"],
}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_run_loads_no_numpy_ma_random_or_hashlib(demo, command):
    # numpy.ma takes about 14 ms to import, np.percentile and a bare
    # np.unique load it; numpy.random takes about 13 ms and 6 MB resident,
    # with hashlib and OpenSSL
    code = ("import sys\n"
            "from lod3recon import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "heavy = ('numpy.ma', 'numpy.random', 'hashlib', '_hashlib')\n"
            "print(sorted(m for m in sys.modules"
            " if m in heavy or m.startswith(tuple(h + '.' for h in heavy))))")
    assert _last_line(code, *RUNS[command](demo)) == "[]"
