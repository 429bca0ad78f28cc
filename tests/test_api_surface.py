"""Guards the public API surface documented in docs/api.md."""

import importlib

import pytest

#: module -> symbols that must stay importable
PUBLIC_API = {
    "repro": ["ChatIYP", "ChatResponse", "ChatIYPConfig", "__version__"],
    "repro.graph": [
        "GraphStore", "Node", "Relationship", "Path", "introspect_schema",
        "GraphSchema", "GraphError", "EntityNotFound",
    ],
    "repro.graph.csv_io": ["export_to_directory", "import_from_directory"],
    "repro.cypher": [
        "CypherEngine", "execute", "parse", "parse_expression", "Record",
        "ResultSet", "render_value", "is_read_only", "CypherError",
        "CypherSyntaxError", "UnsupportedWrite", "CypherTypeError", "CypherRuntimeError",
    ],
    "repro.iyp": [
        "generate_iyp", "IYPConfig", "IYPDataset", "load_dataset",
        "NodeLabel", "RelType", "EDGE_PATTERNS", "schema_summary",
        "AS2497_JP_PERCENT",
    ],
    "repro.iyp.queries": ["COOKBOOK", "run_cookbook_query", "cookbook_names"],
    "repro.embed": [
        "HashingEmbedding", "ContextualEmbedding", "cosine_similarity",
        "VectorStore", "VectorEntry",
    ],
    "repro.nlp": [
        "word_tokenize", "ngrams", "token_f1", "levenshtein",
        "EntityExtractor", "Gazetteer", "ExtractedEntities",
    ],
    "repro.llm": [
        "SimulatedLLM", "TextToCypherModel", "CypherGeneration", "ErrorModel",
        "ResultVerbalizer", "AnswerJudge", "JudgeVerdict", "extract_facts",
        "RelevanceScorer",
    ],
    "repro.rag": [
        "RetrieverQueryEngine", "PipelineResponse", "TextToCypherRetriever",
        "VectorContextRetriever", "LLMReranker", "ResponseSynthesizer",
        "QuestionDecomposer", "DecomposingQueryEngine",
        "build_description_corpus", "DESCRIBED_LABELS", "QueryContext",
        # observability + error taxonomy
        "PipelineObserver", "TracingObserver", "MetricsRegistry", "PipelineError",
        "SymbolicTranslationError", "ExecutionError", "EmptyResult",
        "DeadlineExceeded", "CircuitOpen",
    ],
    "repro.core": [
        "ChatIYP", "ChatIYPConfig", "ChatSession", "Turn", "render_response",
        "text2cypher_prompt", "answer_prompt", "rerank_prompt", "judge_prompt",
    ],
    "repro.core.prompts": ["sanitize_user_text", "IYP_FEW_SHOT_EXAMPLES"],
    "repro.eval": [
        "build_cyphereval", "EvalQuestion", "TEMPLATES", "EvaluationHarness",
        "EvaluationReport", "ValidationModel", "gold_facts", "HumanPanel",
        "annotate_report", "figure_2a_table", "figure_2b_table",
        "finding1_table", "finding2_table", "template_table", "report_to_csv",
        "failure_breakdown", "render_failure_table", "improvement_headroom",
        "paraphrase_penalty", "pearson", "spearman", "summary", "histogram",
        "bimodality_coefficient", "bootstrap_ci", "METRIC_KEYS",
    ],
    "repro.eval.metrics": [
        "sentence_bleu", "corpus_bleu", "rouge_all", "BertScorer", "GEvalMetric",
    ],
    "repro.eval.svg": ["figure_2a_svg", "figure_2b_svg", "histogram_svg", "bar_chart_svg"],
    "repro.baselines": ["PythiaBaseline", "VectorOnlyBaseline"],
    "repro.server": ["make_server", "start_background", "serve", "chat_loop"],
    "repro.serving": [
        "Deadline", "AnswerCache", "normalize_question", "CircuitBreaker",
        "BreakerState", "AdmissionController", "RetryPolicy",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for symbol in PUBLIC_API[module_name]:
        assert hasattr(module, symbol), f"{module_name}.{symbol} missing"


def test_api_doc_mentions_every_module():
    from pathlib import Path

    doc = (Path(__file__).resolve().parent.parent / "docs" / "api.md").read_text()
    for module_name in PUBLIC_API:
        root = module_name.split(".")[0] + "." + module_name.split(".")[1] \
            if "." in module_name else module_name
        assert root.split(".")[0] in doc


#: every ChatIYPConfig field, in declaration order: a new knob is a diff here
CONFIG_FIELDS = [
    "seed", "dataset_size", "dataset_seed", "use_reranker", "use_vector_fallback",
    "use_decomposition", "error_base", "error_slope", "error_power",
    "syntax_error_share", "deadline_ms", "answer_cache_size",
    "breaker_failure_threshold", "breaker_reset_ms", "llm_retry_backoff_ms",
    "coalesce_inflight",
]


def test_config_fields_are_pinned():
    from dataclasses import fields

    from repro import ChatIYPConfig

    assert [f.name for f in fields(ChatIYPConfig)] == CONFIG_FIELDS
