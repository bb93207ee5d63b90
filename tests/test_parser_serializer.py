"""Tests for XML parsing and fragment rendering."""

from __future__ import annotations

import pytest

from repro.xmltree import (
    DeweyCode,
    ParseError,
    fragment_summary,
    parse_file,
    parse_string,
    render_fragment_xml,
    render_nodes,
    render_tree,
    to_xml_string,
    write_xml_file,
)

SAMPLE = """
<library xmlns:x="http://example.org/ns">
  <book id="b1">
    <title>database systems</title>
    <author>alice</author>
  </book>
  <x:book id="b2">
    <title>xml processing</title>
  </x:book>
</library>
"""


class TestParsing:
    def test_parse_string_structure(self):
        tree = parse_string(SAMPLE, name="sample")
        assert tree.name == "sample"
        assert tree.root.label == "library"
        assert tree.size() == 6
        assert tree.node("0.0").attributes == {"id": "b1"}
        assert tree.node("0.0.0").text == "database systems"

    def test_namespace_prefix_stripped(self):
        tree = parse_string(SAMPLE)
        assert tree.node("0.1").label == "book"

    def test_malformed_document_raises(self):
        with pytest.raises(ParseError):
            parse_string("<a><b></a>")

    def test_parse_file_and_write(self, tmp_path):
        tree = parse_string(SAMPLE)
        path = tmp_path / "sample.xml"
        write_xml_file(tree, path)
        reparsed = parse_file(path)
        assert reparsed.size() == tree.size()
        assert reparsed.node("0.0.0").text == "database systems"
        assert reparsed.name == "sample"

    def test_parse_missing_file_raises(self, tmp_path):
        with pytest.raises(ParseError):
            parse_file(tmp_path / "missing.xml")

    def test_round_trip_preserves_words(self):
        tree = parse_string(SAMPLE)
        rendered = to_xml_string(tree)
        reparsed = parse_string(rendered)
        originals = sorted(node.text for node in tree.iter_leaves() if node.text)
        round_tripped = sorted(node.text for node in reparsed.iter_leaves()
                               if node.text)
        assert originals == round_tripped

    def test_mixed_content_tail_text_kept(self):
        tree = parse_string("<a>head<b>inner</b>tail</a>")
        assert "tail" in (tree.root.text or "")
        assert tree.node("0.0").text == "inner"

    def test_deep_document_parses(self):
        # The element tree is walked with an explicit stack, so depth is
        # not bounded by Python's recursion limit.
        depth = 3000
        tree = parse_string("<a>" * depth + "deep word" + "</a>" * depth)
        deepest = tree.node(DeweyCode((0,) * depth))
        assert len(tree) == depth
        assert len(deepest.dewey) == depth
        assert deepest.is_leaf and deepest.text == "deep word"
        assert tree.root.text is None


class TestRendering:
    def test_render_tree_contains_every_node(self):
        tree = parse_string(SAMPLE)
        output = render_tree(tree)
        assert "0.0.0 title" in output
        assert output.count("\n") == tree.size() - 1

    def test_render_nodes_highlights(self):
        tree = parse_string(SAMPLE)
        output = render_nodes(tree, ["0.0", "0.0.0"],
                              highlight=lambda node: node.label == "title")
        assert output.splitlines()[0].startswith("0.0 book")
        assert output.splitlines()[1].endswith("*")

    def test_render_nodes_empty(self):
        tree = parse_string(SAMPLE)
        assert "empty" in render_nodes(tree, [])

    def test_render_fragment_xml(self):
        tree = parse_string(SAMPLE)
        snippet = render_fragment_xml(tree, ["0.0", "0.0.0"])
        assert "<book" in snippet and "</book>" in snippet
        assert "database systems" in snippet
        assert "alice" not in snippet

    def test_fragment_summary(self):
        tree = parse_string(SAMPLE)
        summary = fragment_summary(tree, ["0.0", "0.0.0", "0.0.1"])
        assert "rooted at 0.0" in summary
        assert "3 nodes" in summary
        assert fragment_summary(tree, []) == "empty fragment"
