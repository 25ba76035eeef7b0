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
import os
import re
import runpy
import shlex

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
        known = set(_subparser_choices(parser)) | {"Spec vocabulary"}
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
                     "experiments")


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


def test_setup_py_installs_the_package_version(monkeypatch):
    """One source of truth: what pip installs is ``repro.__version__``."""
    installed = {}
    monkeypatch.setattr("setuptools.setup", installed.update)
    monkeypatch.chdir(REPO_ROOT)
    runpy.run_path("setup.py")
    assert installed["version"] == repro.__version__
