"""Doc-consistency gates: docs/ must track the code.

The docs site is hand-written, so these tests pin the places where it
enumerates code-derived vocabularies: every CLI subcommand, every
registry name, and every serialized schema tag must appear in the docs —
adding a subcommand or registering a new backend without documenting it
fails CI.
"""

import argparse
import ast
import glob
import json
import os
import re
import runpy
import shlex
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser
from repro.experiments import COLLECTORS, DEFENSES, TOPOLOGIES, WORKLOADS

DOCS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs")
REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _read(*parts):
    with open(os.path.join(*parts), encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def cli_md():
    return _read(DOCS_DIR, "cli.md")


@pytest.fixture(scope="module")
def architecture_md():
    return _read(DOCS_DIR, "architecture.md")


def _documented_commands():
    """``(where, argv)`` of every ``python -m repro ...`` line in a fenced
    block of the docs: continuation lines joined, comments, pipes,
    redirections and ``&`` cut, lines with a placeholder skipped."""
    paths = [os.path.join(REPO_ROOT, "README.md"),
             os.path.join(REPO_ROOT, "PERFORMANCE.md"),
             os.path.join(REPO_ROOT, ".claude", "skills", "verify", "SKILL.md"),
             *sorted(glob.glob(os.path.join(DOCS_DIR, "*.md")))]
    for path in paths:
        fenced, pending = False, ""
        for number, line in enumerate(_read(path).splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            pending += line.strip()
            if pending.endswith("\\"):
                pending = pending[:-1]
                continue
            command, pending = pending, ""
            match = re.search(r"python3? -m repro (.*)", command)
            if not fenced or match is None or re.search(
                    r"\$|<\w|\.\.\.", command):
                continue
            argv = shlex.split(re.split(r" #|[|>&]", match.group(1))[0])
            yield f"{os.path.relpath(path, REPO_ROOT)}:{number}", argv


def _subparser_choices(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


class TestCliDocs:
    def test_every_subcommand_has_a_section(self, cli_md):
        parser = build_parser()
        for name in _subparser_choices(parser):
            assert f"## {name}" in cli_md, (
                f"subcommand {name!r} exists in build_parser() but has no "
                "'## {name}' section in docs/cli.md")

    def test_every_trace_subcommand_documented(self, cli_md):
        parser = build_parser()
        trace = _subparser_choices(parser)["trace"]
        for name in _subparser_choices(trace):
            assert f"trace {name}" in cli_md, (
                f"'repro trace {name}' is undocumented in docs/cli.md")

    def test_every_redteam_subcommand_documented(self, cli_md):
        parser = build_parser()
        redteam = _subparser_choices(parser)["redteam"]
        for name in _subparser_choices(redteam):
            assert f"redteam {name}" in cli_md, (
                f"'repro redteam {name}' is undocumented in docs/cli.md")

    def test_no_phantom_subcommand_sections(self, cli_md):
        # Sections for subcommands that were removed from the parser are
        # as misleading as missing ones.
        import re
        parser = build_parser()
        known = set(_subparser_choices(parser)) | {
            "Spec vocabulary", "Errors and exit status"}
        for match in re.findall(r"^## (.+)$", cli_md, flags=re.M):
            assert match in known, (
                f"docs/cli.md documents {match!r}, which build_parser() "
                "does not provide")

    def test_every_documented_command_line_parses(self, capsys):
        """A doc that names a removed subcommand or flag fails here."""
        parser = build_parser()
        commands = list(_documented_commands())
        assert len(commands) > 50
        stale = []
        for where, argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                stale.append(f"{where}: repro {' '.join(argv)}")
        capsys.readouterr()  # argparse's usage text, one per stale line
        assert not stale, "docs show commands that do not parse:\n" + "\n".join(stale)


class TestRegistryDocs:
    @pytest.mark.parametrize("registry", [TOPOLOGIES, DEFENSES, WORKLOADS,
                                          COLLECTORS],
                             ids=["topologies", "defenses", "workloads",
                                  "collectors"])
    def test_every_registry_name_in_cli_md(self, registry, cli_md):
        for name in registry.names():
            assert f"`{name}`" in cli_md, (
                f"registry name {name!r} missing from docs/cli.md")

    @pytest.mark.parametrize("registry", [TOPOLOGIES, DEFENSES, WORKLOADS,
                                          COLLECTORS],
                             ids=["topologies", "defenses", "workloads",
                                  "collectors"])
    def test_every_registry_name_in_architecture_md(self, registry,
                                                    architecture_md):
        for name in registry.names():
            assert f"`{name}`" in architecture_md, (
                f"registry name {name!r} missing from docs/architecture.md")


def _parameter_tables(cli_md):
    """``{heading: {parameter name: default column text}}`` for every
    ``#### ...`` heading under "Component parameters" in docs/cli.md."""
    section = cli_md.split("\n### Component parameters\n", 1)[1]
    section = re.split(r"\n##?#? ", section, maxsplit=1)[0]
    tables = {}
    for block in section.split("\n#### ")[1:]:
        heading, _, body = block.partition("\n")
        tables[heading.strip()] = dict(
            re.findall(r"^\| `([^`]+)` \| ([^|]*?) \|", body, re.M))
    return tables


def _documented_default(text):
    """A default column's value: a backticked word is a string, anything
    else is a JSON literal (``null``, ``false``, ``[]``, ``10e6``)."""
    if text.startswith("`") and text.endswith("`"):
        return text[1:-1]
    return json.loads(text)


def _same_default(documented, declared):
    """Equal (a tuple as the JSON list it is written as), and a bool only
    where the other is one (``1 == True``)."""
    if isinstance(declared, tuple):
        declared = list(declared)
    return documented == declared \
        and isinstance(documented, bool) == isinstance(declared, bool)


def _declared_parameters():
    """``(heading, {name: default})`` for every registry entry and
    ``aitf``."""
    from dataclasses import fields

    from repro.core.config import AITFConfig

    for slot, registry in (("topology", TOPOLOGIES), ("defense", DEFENSES),
                           ("workload", WORKLOADS), ("collector", COLLECTORS)):
        for name in registry.names():
            yield pytest.param(f"{slot} `{name}`", registry.defaults(name),
                               id=f"{slot}-{name}")
    yield pytest.param("`aitf`", {field.name: field.default
                                  for field in fields(AITFConfig)}, id="aitf")


class TestComponentParameterDocs:
    @pytest.mark.parametrize("heading, declared", _declared_parameters())
    def test_entry_table_lists_exactly_the_declared_parameters(
            self, heading, declared, cli_md):
        tables = _parameter_tables(cli_md)
        assert heading in tables, f"docs/cli.md has no '#### {heading}' table"
        assert set(tables[heading]) == set(declared)

    @pytest.mark.parametrize("heading, declared", _declared_parameters())
    def test_entry_table_shows_the_declared_defaults(
            self, heading, declared, cli_md):
        documented = _parameter_tables(cli_md).get(heading, {})
        wrong = [f"{name}: documented {text}, declared {declared[name]!r}"
                 for name, text in sorted(documented.items())
                 if name in declared
                 and not _same_default(_documented_default(text),
                                       declared[name])]
        assert not wrong, f"docs/cli.md '#### {heading}': " + "; ".join(wrong)

    def test_the_default_column_parses(self):
        assert _documented_default("10e6") == 10_000_000.0
        assert _documented_default("`all`") == "all"
        assert _documented_default("null") is None
        assert _documented_default("[]") == []
        assert not _same_default(_documented_default("false"), 0)
        assert not _same_default(_documented_default("1000"), True)

    def test_no_table_for_an_unregistered_entry(self, cli_md):
        headings = {param.values[0] for param in _declared_parameters()}
        assert set(_parameter_tables(cli_md)) == headings


#: Component modules whose parameters live in builder signatures only.
COMPONENT_MODULES = ("workloads", "backends", "collectors", "topologies")


def _params_reads(source, where="<source>"):
    """Every ``params.get(...)`` call or ``params[...]`` subscript in
    ``source``, on a bare ``params`` name or any ``.params`` attribute."""
    def is_params(node):
        return (isinstance(node, ast.Name) and node.id == "params") or (
            isinstance(node, ast.Attribute) and node.attr == "params")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and is_params(node.func.value):
            found.append(f"{where}:{node.lineno}: params.get")
        elif isinstance(node, ast.Subscript) and is_params(node.value):
            found.append(f"{where}:{node.lineno}: params[...]")
    return found


class TestDeclaredParameterCensus:
    def test_no_component_reads_a_raw_params_dict(self):
        found = []
        for module in COMPONENT_MODULES:
            path = os.path.join(REPO_ROOT, "src", "repro", "experiments",
                                f"{module}.py")
            found += _params_reads(_read(path), os.path.relpath(path, REPO_ROOT))
        assert not found, (
            "a component reads its parameters from a dict again; declare "
            "them as keyword-only builder arguments instead:\n  "
            + "\n  ".join(found))

    def test_the_census_sees_reads_and_ignores_forwarding(self):
        assert len(_params_reads(
            "rate = params.get('rate', 1.0)\n"
            "node = self.params['node']\n"
            "x = workload.params.get('rate')\n")) == 3
        assert _params_reads(
            "build(**params)\n"
            "def f(ctx, *, rate=1.0): return rate\n") == []


class TestSchemaDocs:
    def test_every_schema_tag_documented(self, architecture_md):
        from repro.cluster.cache import CACHE_SCHEMA
        from repro.cluster.manifest import MANIFEST_SCHEMA
        from repro.experiments.request import SWEEP_REQUEST_SCHEMA
        from repro.experiments.runner import RESULT_SCHEMA
        from repro.experiments.spec import SPEC_SCHEMA
        from repro.experiments.sweep import PROVENANCE_SCHEMA, SWEEP_SCHEMA
        from repro.obs.trace import TRACE_SCHEMA
        from repro.redteam import (
            REDTEAM_SPEC_SCHEMA,
            REPAIR_SCHEMA,
            SEARCH_SCHEMA,
        )

        for schema in (SPEC_SCHEMA, RESULT_SCHEMA, SWEEP_SCHEMA,
                       PROVENANCE_SCHEMA, SWEEP_REQUEST_SCHEMA,
                       MANIFEST_SCHEMA, CACHE_SCHEMA, TRACE_SCHEMA,
                       REDTEAM_SPEC_SCHEMA, SEARCH_SCHEMA, REPAIR_SCHEMA):
            assert f"`{schema}`" in architecture_md, (
                f"schema tag {schema!r} missing from docs/architecture.md")


class TestReadmeLinks:
    def test_readme_links_every_doc_page(self):
        readme = _read(REPO_ROOT, "README.md")
        for page in sorted(os.listdir(DOCS_DIR)):
            assert f"docs/{page}" in readme, (
                f"README.md does not link docs/{page}")


class TestBenchmarkRange:
    def test_docs_name_exactly_the_benchmarked_experiments(self):
        """Every ``E1–EN`` range the docs give for ``benchmarks/`` ends at the
        last paper experiment a ``pytest.mark.benchmark(group="E…")`` group
        covers, and the groups cover E1 to EN without a gap."""
        covered = set()
        for path in glob.glob(os.path.join(REPO_ROOT, "benchmarks", "*.py")):
            for first, last in re.findall(r'benchmark\(group="E(\d+)(?:-E(\d+))?-',
                                          _read(path)):
                covered.update(range(int(first), int(last or first) + 1))
        assert covered == set(range(1, max(covered) + 1))
        for where in ("README.md", os.path.join("benchmarks", "__init__.py"),
                      os.path.join("tools", "smoke.py")):
            ranges = re.findall(r"E1[-–]E(\d+)", _read(REPO_ROOT, where))
            assert ranges and {int(n) for n in ranges} == {max(covered)}, where


class TestPerformanceTables:
    def test_reroute_counter_table_is_the_recorded_baseline(self):
        """PERFORMANCE.md's per-fault work counters are not hand-kept: the
        rows between the markers must equal ``bench/baseline.json``."""
        import json

        text = _read(REPO_ROOT, "PERFORMANCE.md")
        table = text.split("<!-- reroute-counters:begin -->")[1] \
                    .split("<!-- reroute-counters:end -->")[0]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in table.strip().splitlines()[2:]]
        recorded = json.loads(_read(REPO_ROOT, "bench", "baseline.json"))
        keys = ("events", "anchors_recomputed", "dijkstras",
                "routes_installed", "routes_removed")
        assert [row[0].split("`")[1] for row in rows] == \
            ["fleet_churn", "hier_churn"]
        for row in rows:
            layer = recorded["workloads"][row[0].split("`")[1]]["per_layer"]
            assert [int(cell) for cell in row[2:]] == \
                [layer[f"faults.{key}"] for key in keys], row[0]


#: Names the packet/train twins above the link went by (PR 18 merged them
#: into one data path and one emission path).  ``net/link.py`` keeps its two
#: link models and their state; calling ``Link.enable_train_mode()`` is fine.
TWIN_NAMES = frozenset({
    "handle_train", "forward_train", "deliver_train_locally",
    "_train_filter_stage", "_explode_train", "check_train", "match_train",
    "_train_receivers", "_train_forward_observers", "train_conditioners",
    "supports_trains", "_emit_train", "train_mode", "_train_mode",
})
ONE_PATH_PACKAGES = ("router", "attacks", "core", "analysis", "baselines",
                     "experiments", "sim")
#: The scheduling helpers ``repro.sim.process`` defines: one timer (the
#: only cancellable callback) and one tick process for every traffic source
#: on either engine and every recurring job.
SIM_PROCESS_DEFINITIONS = {"Timer", "TrainProcess"}
#: What ``repro.sim.engine`` defines: a one-shot is a bare heap entry, so
#: the engine needs no scheduling helper of its own.
SIM_ENGINE_DEFINITIONS = {"SimulationError", "Event", "Simulator"}


def _twin_definitions(source, where="<source>"):
    """Every place ``source`` defines or passes a name in TWIN_NAMES: a
    function, a parameter, a keyword argument, an assigned name or
    attribute.  Reading an attribute or calling a method is not a definition."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = [node.name] + [a.arg for a in (
                args.posonlyargs + args.args + args.kwonlyargs)]
        elif isinstance(node, ast.keyword):
            names = [node.arg]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names = [node.attr]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names = [node.id]
        else:
            continue
        found += [f"{where}:{node.lineno}: {name}"
                  for name in names if name in TWIN_NAMES]
    return found


class TestTwinCensus:
    def test_no_packet_train_twin_is_defined_above_the_link(self):
        found = []
        for package in ONE_PATH_PACKAGES:
            pattern = os.path.join(REPO_ROOT, "src", "repro", package, "*.py")
            paths = sorted(glob.glob(pattern))
            assert paths, f"no sources under {pattern}"
            for path in paths:
                found += _twin_definitions(_read(path), os.path.relpath(path, REPO_ROOT))
        assert not found, (
            "a packet/train twin is back above the link — the node data path "
            "and the generator emission path are written once over "
            "(packet, count, train):\n  " + "\n  ".join(found))

    def test_sim_process_defines_one_tick_process_for_both_engines(self):
        tree = ast.parse(_read(os.path.join(
            REPO_ROOT, "src", "repro", "sim", "process.py")))
        defined = {node.name for node in tree.body if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))}
        assert defined == SIM_PROCESS_DEFINITIONS

    def test_the_census_sees_definitions_and_ignores_uses(self):
        assert len(_twin_definitions(
            "class R:\n"
            "    supports_trains = True\n"
            "    def handle_train(self, train, train_mode=False):\n"
            "        self._train_receivers = []\n"
            "        make(train_mode=True)\n")) == 5
        assert _twin_definitions(
            "link.enable_train_mode()\n"
            "if pipe._train_mode:\n"
            "    speedup = doc['train_mode_speedup']\n") == []


def _event_constructions(source):
    """Line numbers where ``source`` calls ``Event(...)`` or
    ``module.Event(...)`` (``threading.Event()`` is another class)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id == "Event") or (
                isinstance(func, ast.Attribute) and func.attr == "Event"
                and not (isinstance(func.value, ast.Name)
                         and func.value.id == "threading")):
            lines.append(node.lineno)
    return lines


class TestSchedulingCensus:
    """The simulator schedules one way: a one-shot is a bare heap entry,
    every recurring job ticks on the one tick process, and only a
    ``Timer`` can be cancelled."""

    def test_sim_engine_defines_no_scheduling_helper(self):
        tree = ast.parse(_read(os.path.join(
            REPO_ROOT, "src", "repro", "sim", "engine.py")))
        defined = {node.name for node in tree.body if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))}
        assert defined == SIM_ENGINE_DEFINITIONS

    def test_only_the_timer_builds_a_cancellable_event(self):
        found = {}
        pattern = os.path.join(REPO_ROOT, "src", "repro", "**", "*.py")
        for path in sorted(glob.glob(pattern, recursive=True)):
            lines = _event_constructions(_read(path))
            if lines:
                found[os.path.relpath(path, REPO_ROOT)] = lines
        assert set(found) == {os.path.join("src", "repro", "sim", "process.py")}, (
            "an Event is built outside the Timer — a one-shot nothing "
            f"cancels is a bare Simulator.call_at entry: {found}")

    def test_the_event_census_ignores_threading_events(self):
        assert _event_constructions(
            "import threading\nstop = threading.Event()\n"
            "e = Event(1.0, f)\nf = engine.Event(2.0, g)\n") == [3, 4]


def _outside_main(source):
    """The top-level statements of ``source`` other than ``def main``."""
    return [node for node in ast.parse(source).body
            if not (isinstance(node, ast.FunctionDef) and node.name == "main")]


def _system_exit_names(source):
    """Line numbers where ``source`` names ``SystemExit`` outside ``main``."""
    return [node.lineno for top in _outside_main(source)
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id == "SystemExit"]


def _exiting_handlers(source):
    """Line numbers of the ``except`` handlers outside ``main`` that exit:
    ``raise SystemExit(...)`` (bare or called) or ``sys.exit(...)``."""
    def exits(node):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            return isinstance(target, ast.Name) and target.id == "SystemExit"
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "exit"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "sys")

    return [handler.lineno for top in _outside_main(source)
            for handler in ast.walk(top)
            if isinstance(handler, ast.ExceptHandler)
            and any(exits(node) for node in ast.walk(handler))]


class TestCliErrorBoundaryCensus:
    """``repro.cli.main`` is the CLI's one error boundary: a command raises
    and ``main`` turns a refused input into one ``repro COMMAND:`` line, so
    no command catches an error only to exit with it."""

    CLI = os.path.join(REPO_ROOT, "src", "repro", "cli.py")

    def test_only_main_names_system_exit(self):
        assert _system_exit_names(_read(self.CLI)) == [], (
            "cli.py names SystemExit outside main(): raise ValueError and "
            "let main() report it")

    def test_no_handler_outside_main_exits(self):
        assert _exiting_handlers(_read(self.CLI)) == [], (
            "an except handler in cli.py exits outside main(): let the "
            "error reach main()")

    def test_the_census_catches_a_planted_handler(self):
        planted = (
            "import sys\n"
            "def run_x(args):\n"
            "    try:\n"
            "        load(args.path)\n"
            "    except ValueError as error:\n"
            "        raise SystemExit(f'repro x: {error}')\n"
            "def run_y(args):\n"
            "    try:\n"
            "        load(args.path)\n"
            "    except OSError:\n"
            "        sys.exit(1)\n"
            "def main(argv=None):\n"
            "    try:\n"
            "        return run_x(argv)\n"
            "    except ValueError as error:\n"
            "        raise SystemExit(str(error)) from error\n")
        assert _system_exit_names(planted) == [6]
        assert _exiting_handlers(planted) == [5, 10]


def _ci_jobs():
    """``{job: its lines}`` of ``.github/workflows/ci.yml``, read as text
    (PyYAML is not a dependency): a job starts at a two-space key under
    ``jobs:``."""
    text = _read(REPO_ROOT, ".github", "workflows", "ci.yml")
    jobs, current = {}, None
    for line in text.split("\njobs:\n", 1)[1].splitlines():
        match = re.match(r"  ([\w-]+):$", line)
        if match:
            current = jobs.setdefault(match.group(1), [])
        elif current is not None:
            current.append(line)
    return jobs


class TestCiRunsEachCheckOnce:
    """CI runs tier-1 once, in ``tier1-tests``; the CLI smoke checks are the
    entries of ``tools/smoke.py``, which runs the same locally."""

    def test_smoke_matrix_is_the_smoke_table(self):
        listed = subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "tools", "smoke.py"),
             "--list"], stdout=subprocess.PIPE, text=True, check=True)
        matrix = [re.search(r"entry: \[(.*)\]", line)
                  for line in _ci_jobs().get("smoke", [])]
        entries = [m.group(1) for m in matrix if m]
        assert len(entries) == 1, "ci.yml needs one smoke job with an entry matrix"
        assert [name.strip() for name in entries[0].split(",")] == \
            listed.stdout.split()

    def test_only_tier1_runs_pytest(self):
        runs = [job for job, lines in _ci_jobs().items()
                if any("pytest" in line for line in lines)]
        assert runs == ["tier1-tests"]

    def test_no_step_holds_inline_python(self):
        text = _read(REPO_ROOT, ".github", "workflows", "ci.yml")
        assert not re.search(r"python3? - <<", text), (
            "move the check into tools/smoke.py")


def test_setup_py_installs_the_package_version(monkeypatch):
    """One source of truth: what pip installs is ``repro.__version__``."""
    installed = {}
    monkeypatch.setattr("setuptools.setup", installed.update)
    monkeypatch.chdir(REPO_ROOT)
    runpy.run_path("setup.py")
    assert installed["version"] == repro.__version__
