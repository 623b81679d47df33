"""Command-line interface.

Subcommands cover the full workflow: ``featurize`` exports raw feature
rows, ``train`` fits a detector and writes a checkpoint, ``predict``
scores new documents, ``evaluate`` reports metrics on labeled data, and
``summarize`` describes a corpus.

Corpora are passed as repeatable ``--corpus LANG=PATH`` options; giving
both languages merges them with language-prefixed document ids.  Outputs
are written atomically, training logs are JSON lines with no timestamps,
and all randomness is seeded, so rerunning a command with identical
inputs produces byte-identical outputs.

Exit codes: 0 on success, 1 for configuration or usage problems, 2 for
data problems, 3 for unexpected internal failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checkpoint import MODEL_KINDS, atomic_write_text
from .config import AppConfig, load_config, with_fields
from .corpus import Corpus, Language, load_tsv, merge_bilingual, summarize
from .errors import ConfigError, DataError
from .evaluation import CLASS_NAMES, evaluate_predictions
from .pipeline import (
    build_raw_features,
    embeddings_table,
    feature_names,
    load_model,
    save_model,
    train_model,
)
from .readability import FEATURE_NAMES, format_feature_matrix

class _Parser(argparse.ArgumentParser):
    """Argparse reports usage problems as ConfigError so they exit with 1."""

    def error(self, message: str):
        raise ConfigError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corpus",
        action="append",
        required=True,
        metavar="LANG=PATH",
        help="corpus TSV for one language (en or es); repeat for both",
    )
    parser.add_argument("--config", default=None, help="INI configuration file")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mgtdetect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="export raw feature rows as TSV")
    _add_common(p)
    p.add_argument("--output", required=True, help="feature TSV to write")
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("train", help="train a detector and write a checkpoint")
    _add_common(p)
    p.add_argument(
        "--model",
        default="ensemble",
        choices=MODEL_KINDS,
        help="detector kind to train",
    )
    p.add_argument("--output", required=True, help="checkpoint path to write")
    p.add_argument("--log", default=None, help="write JSON-line training log here")
    p.add_argument("--mtl", action="store_true", help="enable the language head")
    p.add_argument("--vat", action="store_true", help="enable adversarial smoothing")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score documents with a saved model")
    _add_common(p)
    p.add_argument("--model-path", required=True, help="checkpoint to load")
    p.add_argument("--output", required=True, help="predictions TSV to write")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="report metrics on a labeled corpus")
    _add_common(p)
    p.add_argument("--model-path", required=True, help="checkpoint to load")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")
    p.add_argument(
        "--format",
        default="json",
        choices=("json", "text"),
        help="report format",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("summarize", help="describe a corpus")
    _add_common(p)
    p.add_argument("--output", default=None, help="write the summary here instead of stdout")
    p.set_defaults(func=_cmd_summarize)

    return parser


def _load_corpora(specs: list[str]) -> Corpus:
    seen: dict[Language, Corpus] = {}
    for spec in specs:
        lang_code, sep, path = spec.partition("=")
        if not sep or not path:
            raise ConfigError(f"--corpus expects LANG=PATH, got {spec!r}")
        try:
            language = Language(lang_code.strip().lower())
        except ValueError:
            raise ConfigError(
                f"unknown language {lang_code!r} in --corpus, expected en or es"
            ) from None
        if language in seen:
            raise ConfigError(f"language {language.value!r} given twice in --corpus")
        seen[language] = load_tsv(path, language)
    if set(seen) == {Language.EN, Language.ES}:
        return merge_bilingual(seen[Language.EN], seen[Language.ES])
    return next(iter(seen.values()))


def _config(args) -> AppConfig:
    return load_config(args.config)


def _cmd_featurize(args) -> int:
    cfg = _config(args)
    corpus = _load_corpora(args.corpus)
    matrix = build_raw_features(corpus, cfg.embedder, embeddings_table(cfg.embeddings_path))
    ids = [doc.id for doc in corpus]
    names = feature_names(matrix.shape[1] - len(FEATURE_NAMES))
    atomic_write_text(args.output, format_feature_matrix(ids, names, matrix))
    print(f"wrote {len(ids)} feature rows to {args.output}", file=sys.stderr)
    return 0


# A binary macro-F1 that a coin flip reaches.
_CHANCE_MACRO_F1 = 0.5


def _cmd_train(args) -> int:
    flags = {"mtl.enabled": args.mtl, "vat.enabled": args.vat}
    cfg = with_fields(_config(args), {path: True for path, on in flags.items() if on})
    corpus = _load_corpora(args.corpus)
    model, log = train_model(args.model, corpus, cfg)
    save_model(model, args.output)
    log_text = "".join(json.dumps(entry, ensure_ascii=False) + "\n" for entry in log)
    if args.log:
        atomic_write_text(args.log, log_text)
    else:
        sys.stdout.write(log_text)
    for entry in log:
        if entry["event"] == "validation" and entry["macro_f1"] <= _CHANCE_MACRO_F1:
            print(
                f"warning: {entry['model']} scores validation macro-F1 "
                f"{entry['macro_f1']:.4f}, at or below chance",
                file=sys.stderr,
            )
    print(f"wrote {args.model} model to {args.output}", file=sys.stderr)
    return 0


def _format_predictions(ids, probs, labels) -> str:
    lines = ["id\tprobability\tlabel"]
    for doc_id, prob, label in zip(ids, probs, labels):
        lines.append(f"{doc_id}\t{format(float(prob), '.9g')}\t{CLASS_NAMES[int(label)]}")
    return "\n".join(lines) + "\n"


def _cmd_predict(args) -> int:
    _config(args)
    corpus = _load_corpora(args.corpus)
    model = load_model(args.model_path)
    probs = model.predict_proba(corpus)
    labels = (probs >= model.threshold).astype(int)
    ids = [doc.id for doc in corpus]
    atomic_write_text(args.output, _format_predictions(ids, probs, labels))
    print(f"wrote {len(ids)} predictions to {args.output}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    _config(args)
    corpus = _load_corpora(args.corpus)
    model = load_model(args.model_path)
    y_true = corpus.labels_as_ints()
    probs = model.predict_proba(corpus)
    y_pred = (probs >= model.threshold).astype(int)
    report = evaluate_predictions(
        y_true,
        y_pred,
        scores=probs,
        model=model.kind,
        languages=[doc.language.value for doc in corpus],
    )
    text = (report.to_json() if args.format == "json" else report.to_text()) + "\n"
    if args.output:
        atomic_write_text(args.output, text)
        print(f"wrote evaluation report to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_summarize(args) -> int:
    _config(args)
    corpus = _load_corpora(args.corpus)
    text = summarize(corpus).to_json() + "\n"
    if args.output:
        atomic_write_text(args.output, text)
        print(f"wrote corpus summary to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
