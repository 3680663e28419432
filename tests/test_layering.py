"""The flag ring and every layer above it compute with flag elements only:
none of them imports the series type or series composition, so a change
that sends the flag ring back through n-variable series fails here.  Only
``weylops`` defines or names the classical divided-difference kernel on
packed monomials, so a second copy of the operators fails here too.  Only
``flagring`` multiplies flag elements, on packed monomials: no flag layer
imports the raw ``truncated_product`` of the series, so no product that
reduces in a second pass comes back beside the one that reduces inside
the kernel.  The flag layers hand the context's table of normal forms
itself to the kernel as its spread, so a hit is one subscript: no function
of the package wraps the lookup in a Python call.  Only ``flagring``
converts between exponent tuples and packed monomials
(``FlagContext.pack`` and ``unpack``), so the operators and the walk take
an element's terms as they are.  And no module of the
package imports another one's private names: what two modules share is
public.  The CLI serializes coefficients from ``CoeffPoly.ratios``, the
packed numerators in lowest terms, and reads no ``terms`` attribute: an
element's rows come from its tuple view.  Importing the CLI, which every
command pays for, loads neither the selftest suite nor the
stdlib modules only it or a dataclass would need.  In the CLI, command
output reaches stdout only through ``_respond`` and ``_emit_json``, the one
place a per-request hook has to reach; ``main``'s error lines go to
stderr.  JSON is built only by the CLI's one ``_ENCODER``: no module
calls ``json.dumps``, builds a second encoder or reads a private part of
the json package.  Letters, weight lengths and element ownership are
each checked by one function of ``flagring``, so only the functions
pinned here raise UsageError themselves in the engine's flag layers.
Every function, class and method the package defines has a caller
outside the tests: a module of the package or a benchmark script names
it, or the tracer patches it.
That check matches names, so it cannot see a dunder or a method that
shares its name with a live one (``__mul__``, ``terms``); so the CLI's own
traffic, every command in every theory at ranks 2 and 3 and its refusals,
runs under a profile hook in a fresh interpreter, and every function and
method of the package, dunders and nested functions included, must be
entered.  Only ``__repr__``, ``__eq__``, ``__hash__`` and the assignment
guard of ``Weight`` are exempt."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cobschub"
PERFBENCH = SRC.parent.parent / "perfbench"
# the lists of (owner, attribute, name) targets the tracer patches
TRACER_TARGETS = ("SPANS", "COUNTED")
FLAG_LAYERS = ("flagring", "weylops", "schubert", "cli")
SERIES_NAMES = {"TruncSeries", "compose"}
OPERATOR_KERNEL = "divided_difference_terms"
RAW_PRODUCT = "truncated_product"
FLAG_PRODUCT = "times_terms"
LAYOUT_CONVERTERS = {"pack", "unpack"}
# the flag layers' spread: the context's self-filling table of normal forms
TABLE = "ctx._normal_forms"
NORMAL_FORM = "normal_form"
NOT_ON_THE_CLI_PATH = ("cobschub.selftest", "dataclasses", "inspect",
                       "traceback")
# the functions of the flag layers that raise UsageError themselves: the
# one rule for each of letters, weights and elements, and the checks of
# inputs that no rule covers
USAGE_RAISERS = {
    "flagring": {"Weight.__init__", "validate_weight", "validate_word",
                 "FlagContext.__init__", "FlagContext.pack",
                 "FlagContext.x_elem", "FlagContext.own", "theory_law"},
    "weylops": {"Permutation.__init__", "coroot_pairing"},
    "schubert": {"chevalley_coeff"},
}


def source_trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def ringcore_definitions(trees) -> set[str]:
    return {node.name for node in trees["ringcore"].body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}


def references(tree, names) -> set[str]:
    """The given names a module imports, or reads off an imported module
    (``ringcore.compose``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names} & names
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.add(node.attr)
    return found


def test_flag_layers_import_no_series():
    trees = source_trees()
    assert set(FLAG_LAYERS) <= set(trees)
    # the guard looks for names the series layer really defines
    assert SERIES_NAMES <= ringcore_definitions(trees)
    offenders = {name: references(trees[name], SERIES_NAMES)
                 for name in FLAG_LAYERS}
    assert offenders == {name: set() for name in FLAG_LAYERS}


def definers(trees, name) -> set[str]:
    """The modules that define a top-level function or class ``name``."""
    return {module for module, tree in trees.items()
            if any(isinstance(node, (ast.ClassDef, ast.FunctionDef))
                   and node.name == name for node in tree.body)}


def test_only_weylops_imports_the_divided_difference_kernel():
    trees = source_trees()
    assert definers(trees, OPERATOR_KERNEL) == {"weylops"}
    # the guard sees an import of the name it watches
    assert references(ast.parse(
        f"from cobschub.weylops import {OPERATOR_KERNEL}"),
        {OPERATOR_KERNEL}) == {OPERATOR_KERNEL}
    importers = {name for name, tree in trees.items()
                 if references(tree, {OPERATOR_KERNEL})}
    assert importers == set()


def test_only_flagring_multiplies_flag_elements():
    trees = source_trees()
    assert RAW_PRODUCT in ringcore_definitions(trees)
    assert definers(trees, FLAG_PRODUCT) == {"flagring"}
    # the guard sees the import it watches: the selftest builds raw
    # representatives with it
    assert references(trees["selftest"], {RAW_PRODUCT}) == {RAW_PRODUCT}
    offenders = {name: references(trees[name], {RAW_PRODUCT})
                 for name in FLAG_LAYERS}
    assert offenders == {name: set() for name in FLAG_LAYERS}


def spreads(tree) -> list[str]:
    """The code of the spread argument of each ``sum_of_products`` call of
    a module, by position or keyword, "" for a call without one, and each
    definition named ``normal_form``, function or method, as
    "def normal_form"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", None) == "sum_of_products":
            spread = node.args[1:] + [kw.value for kw in node.keywords]
            found.append(ast.unparse(spread[0]) if spread else "")
        elif isinstance(node, ast.FunctionDef) and \
                node.name == NORMAL_FORM:
            found.append(f"def {NORMAL_FORM}")
    return sorted(found)


def test_flag_layers_spread_onto_the_table_itself():
    # the guard sees a spread by position or keyword, a call without one
    # and a method that wraps the lookup in a Python call
    sample = ast.parse("sum_of_products(t, ctx.normal_form)\n"
                       "sum_of_products(t, spread=ctx.forms.get)\n"
                       "sum_of_products(t)\n"
                       "class C:\n    def normal_form(self, m):\n"
                       "        return self._normal_forms[m]\n")
    assert spreads(sample) == ["", "ctx.forms.get", "ctx.normal_form",
                               "def normal_form"]
    trees = source_trees()
    found = {name: [code for code in spreads(tree) if code]
             for name, tree in trees.items()}
    assert found == {name: {"flagring": [TABLE], "weylops": [TABLE]}.get(
        name, []) for name in trees}


def converters(tree) -> set[str]:
    """The layout converters a module reads off an object (``ctx.pack``)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in LAYOUT_CONVERTERS}


def test_only_flagring_converts_between_tuples_and_packs():
    trees = source_trees()
    # the guard sees the reads it watches, and flagring makes both
    assert converters(ast.parse("ctx.pack(key)\nf = ctx.unpack")) == \
        LAYOUT_CONVERTERS
    assert converters(trees["flagring"]) == LAYOUT_CONVERTERS
    assert {name for name, tree in trees.items()
            if converters(tree)} == {"flagring"}


def private_imports(tree) -> set[str]:
    """The underscore names a module imports from another ``cobschub``
    module, or reads off a module it imported with ``from cobschub import``
    (``fgl._helper``)."""
    found = set()
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module or "").startswith("cobschub"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.add(f"{node.module}.{alias.name}")
                elif node.module == "cobschub":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add(f"{node.value.id}.{node.attr}")
    return found


def test_src_modules_import_no_private_names():
    trees = source_trees()
    # the guard sees the import this rule was written against
    old = ast.parse("from cobschub.ringcore import CoeffPoly, _add_term\n"
                    "from cobschub import fgl\nfgl._helper()")
    assert private_imports(old) == {"cobschub.ringcore._add_term",
                                    "fgl._helper"}
    offenders = {name: private_imports(tree) for name, tree in trees.items()}
    assert offenders == {name: set() for name in trees}


def terms_reads(tree) -> set[str]:
    """The code of each read of a ``terms`` attribute (``c.terms``)."""
    return {ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "terms"}


def test_cli_serializes_coefficients_from_the_packed_view():
    # the guard sees the read of the Fraction route it replaced
    assert terms_reads(ast.parse("sorted(c.terms.items())")) == {"c.terms"}
    cli = source_trees()["cli"]
    assert terms_reads(cli) == set()
    assert private_imports(cli) == set()


def json_uses(tree) -> list[str]:
    """Each use of the json package in a module, once per use: the code of
    every attribute chain read off a name it is imported as (``json.dumps``,
    ``json.encoder.c_make_encoder``), and each submodule imported and each
    name imported from it or from one of its submodules."""
    aliases = set()
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "json":
                    aliases.add((alias.asname or alias.name).split(".")[0])
                    if alias.name != "json":
                        uses.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and (
                node.module or "").split(".")[0] == "json":
            uses += [f"{node.module}.{alias.name}" for alias in node.names]
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in aliases:
            # the whole attribute chain read off the name
            while isinstance(parents.get(node), ast.Attribute):
                node = parents[node]
            uses.append(ast.unparse(node))
    return sorted(uses)


def test_src_builds_json_only_through_the_cli_encoder():
    # the guard sees a call of json.dumps, a second encoder and a private
    # encoder of the json package, however it is imported
    sample = ast.parse("import json\nimport json as j\n"
                       "from json.encoder import c_make_encoder\n"
                       "E = json.JSONEncoder()\nF = j.JSONEncoder()\n"
                       "json.dumps({})\njson.encoder.c_make_encoder\n")
    assert json_uses(sample) == [
        "j.JSONEncoder", "json.JSONEncoder", "json.dumps",
        "json.encoder.c_make_encoder", "json.encoder.c_make_encoder"]
    trees = source_trees()
    assert {name: json_uses(tree) for name, tree in trees.items()} == {
        name: ["json.JSONEncoder"] if name == "cli" else []
        for name in trees}
    encoders = [ast.unparse(node.targets[0]) for node in trees["cli"].body
                if isinstance(node, ast.Assign)
                and "JSONEncoder" in ast.unparse(node.value)]
    assert encoders == ["_ENCODER"]


def stdout_writers(tree) -> set[str]:
    """The top-level functions of a module ("<module>" for other statements)
    that print to stdout or call ``sys.stdout.write``; a print with
    ``file=sys.stderr`` does not count."""
    found = set()
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, ast.FunctionDef) else "<module>"
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                files = [ast.unparse(kw.value) for kw in node.keywords
                         if kw.arg == "file"]
                if files != ["sys.stderr"]:
                    found.add(owner)
            elif (isinstance(func, ast.Attribute) and func.attr == "write"
                  and ast.unparse(func.value) == "sys.stdout"):
                found.add(owner)
    return found


def test_cli_output_goes_through_respond():
    # the guard sees the writes it watches, and lets stderr through
    sample = ast.parse("def f():\n    g(lambda: print(1))\n"
                       "def h():\n    print(2, file=sys.stderr)\n"
                       "sys.stdout.write('x')\n")
    assert stdout_writers(sample) == {"f", "<module>"}
    assert stdout_writers(source_trees()["cli"]) == {"_respond", "_emit_json"}


def test_cli_import_skips_the_selftest_and_dataclasses():
    # a fresh interpreter, so modules this test run has loaded do not count
    code = ("import sys\n"
            f"sys.path.insert(0, {str(SRC.parent)!r})\n"
            "before = set(sys.modules)\n"
            "import cobschub.cli\n"
            "print(*sorted(set(sys.modules) - before))\n")
    loaded = set(subprocess.run([sys.executable, "-c", code], check=True,
                                capture_output=True, text=True).stdout.split())
    # the guard sees the import it watches
    assert "cobschub.cli" in loaded
    assert loaded & set(NOT_ON_THE_CLI_PATH) == set()


def usage_raisers(tree) -> set[str]:
    """The top-level functions and methods (``Class.method``) of a module
    whose bodies, nested functions included, raise UsageError."""
    found = set()
    for stmt in tree.body:
        members = ([(f"{stmt.name}.", node) for node in stmt.body]
                   if isinstance(stmt, ast.ClassDef) else [("", stmt)])
        for prefix, member in members:
            for node in ast.walk(member):
                exc = node.exc if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id == "UsageError":
                    found.add(prefix + getattr(member, "name", "<module>"))
    return found


def test_input_rules_live_in_flagring():
    # the guard sees a method's raise, a nested function's and a bare one,
    # and no other exception
    sample = ast.parse("class A:\n"
                       "    def f(self):\n        raise UsageError('x')\n"
                       "def g():\n    def h():\n        raise UsageError\n"
                       "def k():\n    raise ValueError('x')\n")
    assert usage_raisers(sample) == {"A.f", "g"}
    trees = source_trees()
    assert {name: usage_raisers(trees[name])
            for name in USAGE_RAISERS} == USAGE_RAISERS


def definitions(tree):
    """(qualified name, node) for each top-level function and class of a
    module and each method of its classes; dunders left out."""
    for stmt in tree.body:
        members = [(f"{stmt.name}.", node) for node in stmt.body] \
            if isinstance(stmt, ast.ClassDef) else []
        for prefix, node in [("", stmt)] + members:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node


def name_uses(tree) -> list[str]:
    """Every name a tree reads, imports or reads off an object, once per
    use, and each target name in the tracer's lists."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.append(node.id)
        elif isinstance(node, ast.Attribute):
            uses.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            uses += [alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) in TRACER_TARGETS
                for target in node.targets):
            uses += [entry.elts[1].value for entry in node.value.elts]
    return uses


def uncalled(trees, readers) -> set[str]:
    """The definitions of ``trees`` that no tree of ``trees`` or ``readers``
    names outside the definition's own body.  Names are matched as names,
    so a method counts as called wherever an attribute of its name is
    read."""
    counts: dict[str, int] = {}
    for tree in list(trees.values()) + list(readers):
        for name in name_uses(tree):
            counts[name] = counts.get(name, 0) + 1
    return {f"{module}.{qualname}" for module, tree in trees.items()
            for qualname, node in definitions(tree)
            if counts.get(node.name, 0) == name_uses(node).count(node.name)}


def test_every_definition_has_a_caller_outside_the_tests():
    # the guard sees a dead function, one that only calls itself, a dead
    # method and a dead class, and counts a use in a reader and a tracer
    # target as a call
    sample = {"m": ast.parse("def dead():\n    pass\n"
                             "def loop():\n    return loop()\n"
                             "def used():\n    pass\n"
                             "def traced():\n    pass\n"
                             "class A:\n    def __init__(self):\n"
                             "        used()\n    def stale(self):\n"
                             "        pass\n"
                             "class B:\n    pass\n"
                             "x = A()\n")}
    reader = ast.parse("SPANS = [(m, 'traced', 'm.traced')]\n")
    assert uncalled(sample, [reader]) == {"m.dead", "m.loop", "m.A.stale",
                                          "m.B"}
    readers = [ast.parse(path.read_text(), str(path))
               for path in sorted(PERFBENCH.glob("*.py"))]
    assert uncalled(source_trees(), readers) == set()


# the definitions the CLI traffic need not enter: the dunders the engine
# defines for debugging and for use as dict keys, and the assignment guard
# of an immutable Weight (``__delattr__`` is the same function)
NOT_TRAFFIC = {"__repr__", "__eq__", "__hash__", "Weight.__setattr__"}

# a fresh interpreter runs the prelude, which imports ``main``, and ``main``
# on each command line under a profile hook, then prints the exit codes and
# the (file, first line) of every function whose code was entered
TRAFFIC_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
seen = set()

def hook(frame, event, arg):
    if event == "call":
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
{prelude}
codes = []
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
print(json.dumps([codes, sorted(seen)]))
"""


def function_lines(path) -> dict:
    """(file, first line) -> qualified name for every function and method
    a module defines, nested ones and dunders included; the first line of a
    decorated function is its first decorator's, as its code object says."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno
                                             for d in child.decorator_list])
                found[str(Path(path).resolve()), line] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(Path(path).read_text(), str(path)), "")
    return found


def unentered(paths, prelude, argvs):
    """The exit codes of ``main`` on each of ``argvs`` in a fresh
    interpreter, and the names of the functions of ``paths`` that it did
    not enter, beyond NOT_TRAFFIC."""
    code = TRAFFIC_CHILD.format(src=str(SRC.parent), prelude=prelude,
                                argvs=argvs)
    codes, seen = json.loads(subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True).stdout)
    seen = {(str(Path(name).resolve()), line) for name, line in seen}
    names = {key: name for path in paths
             for key, name in function_lines(path).items()}
    return codes, {f"{Path(path).stem}.{name}"
                   for (path, line), name in names.items()
                   if (path, line) not in seen
                   and not {name, name.rpartition(".")[2]} & NOT_TRAFFIC}


def cli_traffic() -> list:
    """Every command in every theory (K-theory at beta = -1/2) at ranks 2
    and 3, in both formats, and the ``fgl`` dump; then refusals with exit
    2 (a letter out of range, a weight of the wrong length) and 3 (rank 9,
    degree 40)."""
    words = {2: ("1", "1", "1,0"), 3: ("1,2,1", "2,1", "2,1,0")}
    argvs = []
    for theory in (["cobordism"], ["chow"], ["ktheory", "--beta", "-1/2"]):
        for fmt in ("text", "json"):
            common = ["--theory", *theory, "--format", fmt]
            argvs.append(["fgl", "--max-degree", "4"] + common)
            for n, (word, right, weight) in words.items():
                rank = ["--n", str(n)] + common
                argvs += [
                    ["bsclass", "--word", word] + rank,
                    ["product", "--left", word, "--right", right,
                     "--verify"] + rank,
                    ["chevalley", "--word", word, "--weight", weight] + rank,
                    ["expand", "--word", word] + rank,
                    ["pieri", "--word", word, "--weight", weight] + rank,
                    ["selftest"] + rank,
                ]
    return argvs + [["bsclass", "--n", "3", "--word", "1,5"],
                    ["chevalley", "--n", "3", "--word", "1", "--weight",
                     "1,0"],
                    ["bsclass", "--n", "9", "--word", "1"],
                    ["fgl", "--max-degree", "40"]]


def test_every_definition_runs_under_the_cli_traffic(tmp_path):
    # the guard sees a method no traffic calls, a dunder that only an
    # operator would enter, a nested function and a decorated one, and lets
    # the exempt dunders through
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import functools\n"
        "class A:\n"
        "    def __sub__(self, other):\n        return self\n"
        "    def __add__(self, other):\n        return self\n"
        "    def __repr__(self):\n        return 'A'\n"
        "    def stale(self):\n        pass\n"
        "@functools.lru_cache\n"
        "def cached():\n"
        "    def inner():\n        pass\n"
        "    return 0\n"
        "def main(argv):\n    A() - A()\n    return cached()\n")
    codes, missed = unentered(
        [sample], f"sys.path.insert(0, {str(tmp_path)!r})\n"
        "from sample import main", [[]])
    assert (codes, missed) == ([0], {"sample.A.__add__", "sample.A.stale",
                                     "sample.cached.inner"})
    argvs = cli_traffic()
    codes, missed = unentered(sorted(SRC.glob("*.py")),
                              "from cobschub.cli import main", argvs)
    assert codes == [0] * (len(argvs) - 4) + [2, 2, 3, 3]
    assert missed == set()
