"""The docs tree: generated reference stays in sync, links resolve.

``docs/scenario_reference.md`` is emitted by ``python -m repro registry
--markdown`` (see :mod:`repro.api.reference`); these tests fail whenever
the committed page drifts from the live registries — so registering a
component without regenerating the doc is a red build, not silent rot.
The link checks keep README/docs cross-references from dangling.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.api.reference import (
    FAMILIES,
    iter_entries,
    registry_reference_markdown,
    registry_summary,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = REPO_ROOT / "docs"

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _markdown_pages() -> list[Path]:
    pages = [REPO_ROOT / "README.md", *sorted(DOCS.glob("*.md"))]
    assert pages, "no markdown pages found"
    return pages


class TestScenarioReference:
    def test_committed_page_matches_the_emitter(self):
        committed = (DOCS / "scenario_reference.md").read_text()
        assert committed == registry_reference_markdown(), (
            "docs/scenario_reference.md is stale; regenerate with:\n"
            "  PYTHONPATH=src python -m repro registry --markdown "
            "> docs/scenario_reference.md"
        )

    def test_every_registered_name_is_documented(self):
        page = registry_reference_markdown()
        for registry, title, _ in FAMILIES:
            assert f"## {title}" in page
            for name in registry.names():
                assert f"`{name}`" in page, f"{title} entry {name!r} missing"

    def test_distributed_executor_is_documented(self):
        """The store-coordinated executor, which distributes cells."""
        entries = {(e.family, e.name): e for e in iter_entries()}
        entry = entries[("Executors", "service")]
        assert "lease_seconds" in entry.parameters
        assert "coordinator_url" in entry.parameters
        assert entry.summary != "—"

    def test_cli_markdown_matches_page(self, capsys):
        assert main(["registry", "--markdown"]) == 0
        assert capsys.readouterr().out == registry_reference_markdown()

    def test_cli_summary_lists_every_family(self, capsys):
        assert main(["registry"]) == 0
        out = capsys.readouterr().out
        for _, title, _ in FAMILIES:
            assert title in out
        assert "service" in out
        assert registry_summary() in out


class TestDocsTree:
    def test_expected_pages_exist(self):
        for name in ("ARCHITECTURE.md", "scenario_reference.md", "deployment.md"):
            assert (DOCS / name).is_file(), f"docs/{name} missing"

    def test_readme_links_the_docs_tree(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for name in ("ARCHITECTURE.md", "scenario_reference.md", "deployment.md"):
            assert f"docs/{name}" in readme, f"README does not link docs/{name}"

    def test_readme_no_longer_claims_local_machine_only(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "distributed" in readme
        assert "repro worker" in readme

    @pytest.mark.parametrize(
        "page", _markdown_pages(), ids=lambda p: str(p.relative_to(REPO_ROOT))
    )
    def test_relative_links_resolve(self, page):
        text = page.read_text()
        broken = []
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not (page.parent / path).exists():
                broken.append(target)
        assert not broken, f"{page}: dangling links {broken}"
