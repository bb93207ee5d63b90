"""Tests for the node/tree model, the builder and tree mutation helpers."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.datasets import DBLPConfig, XMarkConfig, generate_dblp, generate_xmark
from repro.xmltree import (
    DeweyCode,
    DuplicateNode,
    NodeNotFound,
    SubtreeSpec,
    TreeBuilder,
    XMLNode,
    XMLTree,
    XMLTreeError,
    parse_string,
    spec,
    tree_from_spec,
)


@pytest.fixture
def library_tree() -> XMLTree:
    document = spec(
        "library", None,
        spec("book", None,
             spec("title", "database systems"),
             spec("author", "alice")),
        spec("book", None,
             spec("title", "xml processing"),
             spec("author", "bob")),
    )
    return tree_from_spec(document, name="library")


def preorder(tree):
    """Every node's ``(dewey, label, text)``, in document order."""
    return [(str(node.dewey), node.label, node.text)
            for node in tree.iter_preorder()]


class TestNode:
    def test_structure_accessors(self, library_tree):
        root = library_tree.root
        assert root.is_root and not root.is_leaf
        assert root.child_count() == 2
        first_book = root.children[0]
        assert first_book.parent is root
        assert first_book.depth == 1
        title = first_book.children[0]
        assert title.is_leaf
        assert title.text == "database systems"

    def test_iteration_orders(self, library_tree):
        labels = [node.label for node in library_tree.root.iter_subtree()]
        assert labels == ["library", "book", "title", "author", "book", "title",
                          "author"]
        descendants = list(library_tree.root.iter_descendants())
        assert len(descendants) == library_tree.size() - 1

    def test_iter_ancestors(self, library_tree):
        title = library_tree.node("0.1.0")
        chain = [node.label for node in title.iter_ancestors()]
        assert chain == ["book", "library"]
        chain_self = [node.label for node in title.iter_ancestors(include_self=True)]
        assert chain_self == ["title", "book", "library"]

    def test_find_children(self, library_tree):
        books = library_tree.root.find_children("book")
        assert len(books) == 2
        assert library_tree.root.find_children("missing") == []

    def test_raw_strings_include_label_text_attributes(self):
        node = XMLNode(DeweyCode.root(), "item", "antique vase",
                       {"id": "item1", "featured": ""})
        strings = node.raw_strings()
        assert "item" in strings
        assert "antique vase" in strings
        assert "id" in strings and "item1" in strings
        assert "featured" in strings

    def test_equality_and_hash(self, library_tree):
        node = library_tree.node("0.0.0")
        twin = XMLNode(DeweyCode.parse("0.0.0"), "title")
        assert node == twin
        assert hash(node) == hash(twin)


class TestTree:
    def test_lookup(self, library_tree):
        assert library_tree.node("0.1.0").text == "xml processing"
        assert library_tree.get("0.9") is None
        with pytest.raises(NodeNotFound):
            library_tree.node("0.9")
        assert "0.1" in library_tree
        assert "0.9" not in library_tree

    def test_sizes_and_labels(self, library_tree):
        assert library_tree.size() == 7
        assert len(library_tree) == 7
        assert library_tree.max_depth() == 2
        assert library_tree.labels() == ["author", "book", "library", "title"]
        histogram = library_tree.label_histogram()
        assert histogram["book"] == 2
        assert histogram["library"] == 1

    def test_lca_and_paths(self, library_tree):
        lca = library_tree.lca(["0.0.0", "0.1.1"])
        assert lca.dewey == DeweyCode.root()
        path = library_tree.path_nodes("0", "0.1.0")
        assert [str(node.dewey) for node in path] == ["0", "0.1", "0.1.0"]
        with pytest.raises(ValueError):
            library_tree.path_nodes("0.1", "0.0.0")

    def test_fragment_nodes_union_of_paths(self, library_tree):
        fragment = library_tree.fragment_nodes("0", ["0.0.0", "0.1.1"])
        assert [str(node.dewey) for node in fragment] == \
            ["0", "0.0", "0.0.0", "0.1", "0.1.1"]

    def test_duplicate_dewey_rejected(self):
        root = XMLNode(DeweyCode.root(), "a")
        child = XMLNode(DeweyCode.root(), "b")
        root.attach_child(child)
        with pytest.raises(DuplicateNode):
            XMLTree(root)

    def test_iter_leaves(self, library_tree):
        leaves = [node.label for node in library_tree.iter_leaves()]
        assert leaves == ["title", "author", "title", "author"]


class TestTreeMutation:
    def test_copy_is_deep(self, library_tree):
        clone = library_tree.copy()
        assert clone.size() == library_tree.size()
        assert clone.node("0.0.0") is not library_tree.node("0.0.0")
        assert clone.node("0.0.0").text == library_tree.node("0.0.0").text

    def test_with_inserted_subtree(self, library_tree):
        insertion = SubtreeSpec("book", None, children=[
            SubtreeSpec("title", "graph databases"),
        ])
        grown = library_tree.with_inserted_subtree("0", insertion)
        assert grown.size() == library_tree.size() + 2
        assert grown.node("0.2").label == "book"
        assert grown.node("0.2.0").text == "graph databases"
        # The original tree is untouched.
        assert library_tree.get("0.2") is None

    def test_copy_keeps_order_and_codes(self, library_tree):
        assert preorder(library_tree.copy()) == preorder(library_tree)

    def test_inserted_spec_children_keep_their_order(self, library_tree):
        insertion = SubtreeSpec("book", children=[
            SubtreeSpec("title", "graphs", children=[SubtreeSpec("sub")]),
            SubtreeSpec("author", "carol")])
        grown = library_tree.with_inserted_subtree("0.1", insertion)
        assert preorder(grown)[-4:] == [
            ("0.1.2", "book", None), ("0.1.2.0", "title", "graphs"),
            ("0.1.2.0.0", "sub", None), ("0.1.2.1", "author", "carol")]

    def test_a_tree_the_parser_reads_can_be_copied(self):
        # Deeper than the interpreter's recursion limit: the copy and the
        # insertion walk an explicit stack.
        tree = parse_string("<a>" * 3000 + "deep" + "</a>" * 3000)
        assert preorder(tree.copy()) == preorder(tree)
        deepest = max(tree.iter_preorder(), key=lambda node: len(node.dewey))
        grown = tree.with_inserted_subtree(deepest.dewey,
                                           SubtreeSpec("b", text="x"))
        added = grown.node(deepest.dewey.child(0))
        assert (added.label, added.text) == ("b", "x")
        assert grown.size() == tree.size() + 1

    def test_a_deep_spec_materializes(self):
        deep = SubtreeSpec("a", text="deep")
        for _ in range(2999):
            deep = SubtreeSpec("a", children=[deep])
        assert deep.node_count() == 3000
        tree = tree_from_spec(deep)
        assert preorder(tree) == preorder(
            parse_string("<a>" * 3000 + "deep" + "</a>" * 3000))

    def test_subtree_spec_node_count(self):
        insertion = SubtreeSpec("a", children=[SubtreeSpec("b"), SubtreeSpec("c")])
        assert insertion.node_count() == 3


class TestBuilder:
    def test_builds_document_order_deweys(self):
        builder = TreeBuilder("root")
        builder.element("child")
        builder.text_element("leaf", "one")
        builder.text_element("leaf", "two")
        builder.up()
        builder.text_element("other", "three")
        tree = builder.build()
        assert [str(node.dewey) for node in tree.iter_preorder()] == \
            ["0", "0.0", "0.0.0", "0.0.1", "0.1"]
        assert tree.node("0.0.1").text == "two"

    def test_up_validation(self):
        builder = TreeBuilder("root")
        with pytest.raises(XMLTreeError):
            builder.up()
        builder.element("child")
        with pytest.raises(XMLTreeError):
            builder.up(5)

    def test_builder_single_use(self):
        builder = TreeBuilder("root")
        builder.build()
        with pytest.raises(XMLTreeError):
            builder.element("child")
        with pytest.raises(XMLTreeError):
            builder.build()

    def test_current_and_depth(self):
        builder = TreeBuilder("root")
        assert builder.depth == 1
        builder.element("child")
        assert builder.current.label == "child"
        assert builder.depth == 2


class TestResidentFootprint:
    """A node stores a fresh container only where it holds something."""

    @staticmethod
    def attributeless_nodes():
        built = TreeBuilder("root")
        built.text_element("leaf", "text")
        parsed = parse_string('<root><leaf id="1">text</leaf><leaf/></root>')
        specced = tree_from_spec(spec("root", None, spec("leaf", "text")))
        trees = [built.build(), parsed, specced, parsed.copy()]
        return [node for tree in trees for node in tree.iter_preorder()
                if not node.attributes]

    def test_nodes_without_attributes_share_one_read_only_mapping(self):
        nodes = self.attributeless_nodes()
        assert len(nodes) == 8
        assert len({id(node.attributes) for node in nodes}) == 1
        with pytest.raises(TypeError):
            nodes[0].attributes["id"] = "1"  # type: ignore[index]
        assert nodes[0].attributes == {}

    def test_a_node_with_attributes_keeps_its_own_copy(self):
        given = {"id": "b1"}
        node = XMLNode(DeweyCode.root(), "book", attributes=given)
        given["id"] = "changed"
        assert node.attributes == {"id": "b1"}
        parsed = parse_string('<a><b id="1"/><b id="2"/></a>')
        first, second = parsed.root.children
        assert first.attributes is not second.attributes
        assert parsed.copy().node("0.0").attributes is not first.attributes

    def test_a_leaf_hands_out_a_fresh_empty_list(self, library_tree):
        # Every leaf holds the one shared empty tuple, not a list of its own.
        leaves = list(library_tree.iter_leaves())
        assert len({id(leaf._children) for leaf in leaves}) == 1
        leaf = library_tree.node("0.0.0")
        assert leaf.is_leaf and leaf.child_count() == 0
        children = leaf.children
        assert children == [] and children is not leaf.children
        children.append(library_tree.root)
        assert leaf.is_leaf and leaf.children == []
        assert leaf.find_children("title") == []
        assert list(leaf.iter_subtree()) == [leaf]

    def test_inserting_under_a_leaf_gives_it_the_child(self, library_tree):
        grown = library_tree.with_inserted_subtree(
            "0.0.0", SubtreeSpec("note", "first edition"))
        leaf = grown.node("0.0.0")
        assert not leaf.is_leaf and leaf.child_count() == 1
        # The leaves, the new one included, still share one empty container.
        assert len({id(node._children) for node in grown.iter_leaves()}) == 1
        assert grown.node("0.0.1").is_leaf
        assert [child.label for child in leaf.children] == ["note"]
        assert grown.node("0.0.0.0").parent is leaf
        assert library_tree.node("0.0.0").is_leaf

    @pytest.mark.parametrize("dataset", ["dblp", "xmark"])
    def test_a_generated_tree_retains_at_most_350_bytes_per_node(self,
                                                                 dataset):
        # The generator's strings count too: they are what the tree keeps.
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tree = (generate_dblp(DBLPConfig(publications=400,
                                             keyword_scale=0.01, seed=2009))
                    if dataset == "dblp"
                    else generate_xmark(XMarkConfig(scale="data1",
                                                    base_items=40)))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / len(tree) <= 350, \
            f"{retained / len(tree):.0f} bytes retained per node"
