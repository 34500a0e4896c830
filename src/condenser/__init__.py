"""condenser: condense Java code changes into compact text templates.

The pipeline turns a commit (old/new file snapshots or a unified diff plus
snapshots) into a three-part textual template — summarized structural
changes, elicited comments, emphasized identifiers — classifies the commit
into one of twelve change types, scores candidate commit messages against
references, and exports prompt/target records for fine-tuning.
"""

from condenser.changeset import (
    ChangeType,
    StructuralDiff,
    classify_change,
    classify_change_explained,
    detect_statement_moves,
    diff_facts,
)
from condenser.comments import ElicitedComment, elicit_annotations, elicit_comments
from condenser.config import PipelineConfig, load_config, load_stoplist
from condenser.corpus import (
    CommitSample,
    SftRecord,
    condense_commit,
    export_sft,
    generate_remote,
    load_corpus,
    run_pipeline,
)
from condenser.diffing import CommitInput, FilePair, UnifiedDiff, parse_unified_diff, reconstruct_pairs
from condenser.identifiers import (
    EmphasizedIdentifier,
    IdentifierFilter,
    apply_filter,
    extract_identifiers,
    split_camel,
)
from condenser.javafacts import (
    ClassFacts,
    CommentFacts,
    FieldFacts,
    MethodDecl,
    MethodFacts,
    ParseError,
    SourceFacts,
    StatementFacts,
    extract_comments,
    parse_java,
)
from condenser.metrics import MetricReport, TokenSeq, bleu_norm, meteor, rouge_l, score_corpus, tokenize_message
from condenser.templater import CondensedTemplate, count_tokens, render

__version__ = "0.1.0"
