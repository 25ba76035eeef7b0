"""Doc-consistency gates: docs/ must track the code.

The docs site is hand-written, so these tests pin the places where it
enumerates code-derived vocabularies: every CLI subcommand, every
registry name, and every serialized schema tag must appear in the docs —
adding a subcommand or registering a new backend without documenting it
fails CI.
"""

import argparse
import os
import runpy

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
        from repro.perf.bench import BENCH_SCHEMA, SWEEP_BENCH_SCHEMA
        from repro.redteam import (
            REDTEAM_SPEC_SCHEMA,
            REPAIR_SCHEMA,
            SEARCH_SCHEMA,
        )

        for schema in (SPEC_SCHEMA, RESULT_SCHEMA, SWEEP_SCHEMA,
                       PROVENANCE_SCHEMA, SWEEP_REQUEST_SCHEMA,
                       MANIFEST_SCHEMA, CACHE_SCHEMA, TRACE_SCHEMA,
                       BENCH_SCHEMA, SWEEP_BENCH_SCHEMA,
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


def test_setup_py_installs_the_package_version(monkeypatch):
    """One source of truth: what pip installs is ``repro.__version__``."""
    installed = {}
    monkeypatch.setattr("setuptools.setup", installed.update)
    monkeypatch.chdir(REPO_ROOT)
    runpy.run_path("setup.py")
    assert installed["version"] == repro.__version__
