"""Unit tests for the shared four-stage pipeline object itself."""

from __future__ import annotations

import pytest

from repro.core import ALGORITHM_NAMES, Query, SearchEngine
from repro.core.pipeline import FragmentPipeline
from repro.core.valid_contributor import prune_with_valid_contributor
from repro.datasets import PAPER_QUERIES
from repro.index import InvertedIndex
from repro.lca import indexed_lookup_eager_slca, indexed_stack_elca
from repro.service import EnginePool
from repro.xmltree import DeweyCode
from test_service_unit import queued_batch

D = DeweyCode.parse


@pytest.fixture
def pipeline(publications):
    return FragmentPipeline(
        InvertedIndex(publications), indexed_stack_elca,
        lambda records: prune_with_valid_contributor(records, "custom"),
        "custom-pipeline")


class TestStageHelpers:
    def test_keyword_nodes_stage(self, pipeline):
        lists = pipeline.keyword_nodes("Liu keyword")
        assert set(lists) == {"liu", "keyword"}
        assert [str(code) for code in lists["liu"]] == \
            ["0.2.0.0.0.0", "0.2.0.3.0"]

    def test_lca_nodes_stage_uses_configured_semantics(self, publications):
        index = InvertedIndex(publications)
        elca_pipeline = FragmentPipeline(
            index, indexed_stack_elca, prune_with_valid_contributor, "elca")
        slca_pipeline = FragmentPipeline(
            index, indexed_lookup_eager_slca, prune_with_valid_contributor,
            "slca")
        lists = index.keyword_nodes(Query.parse("Liu keyword").keywords)
        assert elca_pipeline.lca_nodes("Liu keyword") == indexed_stack_elca(lists)
        assert slca_pipeline.lca_nodes("Liu keyword") == \
            indexed_lookup_eager_slca(lists)

    def test_raw_fragments_stage(self, pipeline):
        fragments = pipeline.raw_fragments(PAPER_QUERIES["Q2"])
        assert [str(fragment.root) for fragment in fragments] == \
            ["0.2.0", "0.2.0.3.0"]
        assert fragments[0].keyword_nodes

    def test_raw_fragments_empty_when_keyword_missing(self, pipeline):
        assert pipeline.raw_fragments("xml absentkeyword") == []

    def test_record_tree_stage(self, pipeline):
        fragments = pipeline.raw_fragments(PAPER_QUERIES["Q2"])
        records = pipeline.record_tree(PAPER_QUERIES["Q2"], fragments[0])
        assert records.fragment.nodes[0] == fragments[0].root
        assert records.size() == fragments[0].size
        assert list(records.parents) == list(fragments[0].parents)


class TestSearchBehaviour:
    def test_search_uses_custom_pruner_name(self, pipeline):
        result = pipeline.search(PAPER_QUERIES["Q2"])
        assert result.algorithm == "custom-pipeline"
        assert all(fragment.algorithm == "custom" for fragment in result)

    def test_search_records_lca_nodes(self, pipeline):
        result = pipeline.search(PAPER_QUERIES["Q2"])
        assert [str(code) for code in result.lca_nodes] == ["0.2.0", "0.2.0.3.0"]

    def test_search_accepts_query_objects_and_lists(self, pipeline):
        from_string = pipeline.search("liu keyword")
        from_list = pipeline.search(["liu", "keyword"])
        from_query = pipeline.search(Query.parse("liu keyword"))
        assert from_string.roots() == from_list.roots() == from_query.roots()

    def test_index_built_on_demand(self, publications):
        # The engine builds one index over its tree for every pipeline.
        engine = SearchEngine(publications)
        assert isinstance(engine.source, InvertedIndex)
        assert engine.source.tree is publications
        assert all(engine.algorithm(name).source is engine.source
                   for name in ALGORITHM_NAMES)

    def test_shared_index_instance(self, publications):
        index = InvertedIndex(publications)
        pipeline = FragmentPipeline(index, indexed_stack_elca,
                                    prune_with_valid_contributor, "validrtf")
        assert pipeline.source is index


class TestOneMergePerSearch:
    """``getLCA`` and ``getRTF`` of one ELCA search read one match list:
    the query's lists are merged exactly once."""

    QUERY = PAPER_QUERIES["Q2"]

    @pytest.fixture
    def merges(self, monkeypatch):
        from repro.index import packed

        calls = []
        merge = packed.match_list

        def counting(lists):
            calls.append(len(lists))
            return merge(lists)

        monkeypatch.setattr(packed, "match_list", counting)
        return calls

    def test_memory_search_merges_once(self, publications, merges):
        engine = SearchEngine(publications)
        result = engine.search(self.QUERY, "validrtf")
        assert result.fragments
        assert merges == [2]

    def test_cold_sqlite_search_merges_once(self, publications, store_engine,
                                            tmp_path, merges):
        from repro.storage import SQLiteStore

        store = SQLiteStore(tmp_path / "one.db")
        try:
            engine = store_engine(publications, store, "pub")
            result = engine.search(self.QUERY, "validrtf")
        finally:
            store.close()
        assert result.fragments
        assert merges == [2]

    def test_each_batched_query_merges_once(self, publications, merges):
        """Each request of a served batch runs its own search: one merge
        per query, none shared across the batch."""
        queries = [self.QUERY, PAPER_QUERIES["Q3"], "xml keyword search"]
        with EnginePool.for_backend("memory", tree=publications, workers=1,
                                    cache_size=0) as pool:
            answers = queued_batch(pool, queries, lead=self.QUERY)
        assert all(answer.documents for answer in answers)
        assert merges == [len(Query.parse(query).keywords)
                          for query in [self.QUERY] + queries]
