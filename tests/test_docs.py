"""Documentation consistency checks (cheap link-rot insurance)."""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestRequiredDocs:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "CHANGELOG.md",
        "CONTRIBUTING.md", "docs/paper_mapping.md", "docs/tutorial.md",
        "docs/file_formats.md", "benchmarks/README.md",
    ])
    def test_exists_and_nonempty(self, name):
        path = REPO / name
        assert path.exists(), name
        assert len(path.read_text()) > 200, f"{name} is suspiciously short"


class TestDesignInventoryPointsAtRealModules:
    def test_every_referenced_module_imports(self):
        import importlib

        text = (REPO / "DESIGN.md").read_text()
        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
        assert modules, "DESIGN.md no longer names modules?"
        for dotted in sorted(modules):
            parts = dotted.split(".")
            # Trim trailing attribute names (classes/functions) until the
            # module itself imports.
            for cut in range(len(parts), 1, -1):
                try:
                    module = importlib.import_module(".".join(parts[:cut]))
                except ModuleNotFoundError:
                    continue
                remainder = parts[cut:]
                obj = module
                for attr in remainder:
                    assert hasattr(obj, attr), f"{dotted} missing {attr}"
                    obj = getattr(obj, attr)
                break
            else:
                raise AssertionError(f"DESIGN.md references unknown {dotted}")


class TestServiceDocsFollowTheOpTable:
    def test_design_names_the_op_table(self):
        # The inventory test above checks that the module imports.
        assert "`repro.service.ops`" in (REPO / "DESIGN.md").read_text()

    def test_wire_protocol_lists_exactly_the_ops(self):
        from repro.service.ops import OPS

        text = (REPO / "docs" / "wire_protocol.md").read_text()
        section = text.split("\n## Operations\n", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert len(listed) == len(set(listed)), "an op is listed twice"
        assert set(listed) == set(OPS)


class TestBenchTargetsExist:
    def test_every_bench_file_named_in_design_exists(self):
        text = (REPO / "DESIGN.md").read_text()
        for match in re.findall(r"benchmarks/(bench_\w+\.py)", text):
            assert (REPO / "benchmarks" / match).exists(), match

    def test_every_test_file_named_in_paper_mapping_exists(self):
        text = (REPO / "docs" / "paper_mapping.md").read_text()
        for match in re.findall(r"tests/(test_\w+\.py)", text):
            assert (REPO / "tests" / match).exists(), match


class TestReadmeExamplesListedExist:
    def test_examples_mentioned_in_readme_exist(self):
        text = (REPO / "README.md").read_text()
        for match in re.findall(r"examples/(\w+\.py)", text):
            assert (REPO / "examples" / match).exists(), match
