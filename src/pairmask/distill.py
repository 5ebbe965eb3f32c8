"""Report distillation: entity-wise summary sentences appended to reports.

Two interchangeable paths produce the summaries: a remote chat-completion
endpoint driven by a fixed one-shot prompt, and a deterministic rule
that needs no network. Both yield sentences in the constrained grammar

    "There is [descriptor] [entity]."  /  "There may [descriptor] [entity]."

which ``parse_distilled`` maps back to structured form. The parsed
sentences are re-tokenized and appended to the original report with a
recorded boundary so later span extraction never mixes the two segments.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from . import corpus
from .corpus import AnnotatedReport, TokenSeq

MODALITY_IS = "is"
MODALITY_MAY = "may"

PROVENANCE_REMOTE = "remote"
PROVENANCE_RULE = "rule_based"
PROVENANCE_CACHE = "cache"

DEFAULT_CREDENTIAL_ENV = "DISTILL_API_KEY"

DEFAULT_SYSTEM_MESSAGE = "You are a knowledgeable and veteran doctor."

DEFAULT_INSTRUCTION = (
    "Please help me analysis the medical reports and conclude them briefly. "
    "Now, I will give you a medical report, as well as the mentioned entities. "
    "Please write brief and clear conclusions according to the reports as the "
    "following format: 'There is [a] [b].' when you are sure whether the entity "
    "exists in the report, or 'There may [a] [b].', when you are not sure whether "
    "the entity exists in the report. [a] represents adjective words describing "
    "the severeness or existence of the entity [b]. Please generate conclusions "
    "for the entities mentioned above one by one, according to the format and do "
    "not generate other words. Please keep only one entity in a sentence, there "
    "is no need of using 'and' or 'or' to connect two or more words."
)

DEFAULT_EXAMPLE_BLOCK = (
    "---Example----\n"
    "Report: As compared to _, the lung volumes have slightly decreased. "
    "Signs of mild over inflation and moderate pleural effusion persist. "
    "Elongation of the descending aorta.\n"
    "Entities:  aorta, inflation, effusion\n"
    "Conclusion: \n"
    "There is moderate pleural effusion.\n"
    "There is mild over inflation.\n"
    "There is descending aorta.\n"
    "---Example END----"
)


@dataclass(frozen=True)
class DistillPrompt:
    """A fully assembled distillation request for one report, on the
    module's fixed system message, instruction and one-shot example."""

    report: str
    entities: tuple

    def query(self) -> str:
        joined = ", ".join(self.entities)
        return (
            f"{DEFAULT_EXAMPLE_BLOCK}\n"
            f"Given the report:\n{self.report}\n"
            f"Entities: {joined}.\n"
            f"Conclusion:"
        )

    def messages(self) -> list:
        """Chat-completion message list (system, instruction, query)."""
        return [
            {"role": "system", "content": DEFAULT_SYSTEM_MESSAGE},
            {"role": "user", "content": DEFAULT_INSTRUCTION},
            {"role": "user", "content": self.query()},
        ]

    def cache_key(self) -> str:
        payload = json.dumps(
            {
                "report": self.report,
                "entities": list(self.entities),
                "system": DEFAULT_SYSTEM_MESSAGE,
                "instruction": DEFAULT_INSTRUCTION,
                "example_block": DEFAULT_EXAMPLE_BLOCK,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_prompt(report: str, entities: Sequence[str]) -> DistillPrompt:
    """Assemble the one-shot prompt; entities deduped in first-seen order."""
    deduped = []
    for e in entities:
        if e not in deduped:
            deduped.append(e)
    if not deduped:
        raise ValueError("build_prompt: entity list is empty")
    return DistillPrompt(report=report, entities=tuple(deduped))


@dataclass(frozen=True)
class DistilledSentence:
    """One grammar-constrained summary sentence.

    ``descriptor`` may be empty ("There is effusion."). ``off_lexicon``
    marks entity words outside the configured lexicon; they are kept but
    flagged so downstream consumers can filter.
    """

    modality: str      # "is" | "may"
    descriptor: str
    entity: str
    off_lexicon: bool = False

    def render(self) -> str:
        if self.descriptor:
            return f"There {self.modality} {self.descriptor} {self.entity}."
        return f"There {self.modality} {self.entity}."


@dataclass
class DistilledReport:
    sentences: list
    raw: str
    provenance: str


_WORD_RE = corpus._TOKEN_RE


def parse_distilled(raw: str, lexicon: frozenset = corpus.DEFAULT_ENTITY_LEXICON):
    """Parse raw distillation output into sentences.

    Candidates are period-terminated pieces of each line. A candidate
    matches when it reads "there is/may ... <entity-word>"; the final
    word binds the entity slot and the middle words the descriptor.
    Returns (sentences, dropped_count); raises if a non-empty response
    yields nothing.
    """
    sentences = []
    dropped = 0
    stripped = raw.strip()
    for line in stripped.splitlines():
        for piece in line.split("."):
            words = [w for w in _WORD_RE.findall(piece.lower()) if w.isalnum()]
            if not words:
                continue
            if len(words) >= 3 and words[0] == "there" and words[1] in (MODALITY_IS, MODALITY_MAY):
                entity = words[-1]
                folded = corpus.fold_plural(entity, lexicon)
                sentences.append(
                    DistilledSentence(
                        modality=words[1],
                        descriptor=" ".join(words[2:-1]),
                        entity=entity,
                        off_lexicon=folded is None,
                    )
                )
            else:
                dropped += 1
    if stripped and not sentences:
        raise ValueError(f"parse_distilled: no parseable sentences in response ({dropped} dropped)")
    return sentences, dropped


# Span words that merely restate the sentence frame; dropped when the
# rule-based path rewrites a span into a summary sentence.
_FRAME_WORDS = {"there", "is", "are", "was", "were"}


def distill_rule_based(annotated: AnnotatedReport) -> DistilledReport:
    """Deterministic offline distiller over extracted descriptor spans.

    Emits one sentence per mention in order: negated mentions become
    "There is no X.", mentions with severity-style words keep them, and
    bare mentions fall back to the uncertain form "There may be X.".
    """
    sentences = []
    for mention, span in zip(annotated.mentions, annotated.spans):
        words = [w for w in span.surfaces(annotated.seq) if w not in _FRAME_WORDS]
        if span.polarity == corpus.POLARITY_NEGATIVE:
            sentence = DistilledSentence(MODALITY_IS, "no", mention.entity)
        elif words:
            sentence = DistilledSentence(MODALITY_IS, " ".join(words), mention.entity)
        elif span.token_indices:
            # span present but only frame words: existence without severity
            sentence = DistilledSentence(MODALITY_IS, "", mention.entity)
        else:
            sentence = DistilledSentence(MODALITY_MAY, "be", mention.entity)
        sentences.append(sentence)
    raw = " ".join(s.render() for s in sentences)
    return DistilledReport(sentences=sentences, raw=raw, provenance=PROVENANCE_RULE)


class ChatClient(Protocol):
    def complete(self, messages: list) -> str: ...


class HttpChatClient:
    """Chat-completion client for an OpenAI-style endpoint.

    The API credential is read from the environment variable named by
    ``credential_env`` at request time; it is never read from files.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        credential_env: str = DEFAULT_CREDENTIAL_ENV,
        temperature: float = 0.0,
        timeout: float = 60.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.credential_env = credential_env
        self.temperature = temperature
        self.timeout = timeout

    def complete(self, messages: list) -> str:
        import urllib.request  # loads http and ssl: several MB that only this call needs

        key = os.environ.get(self.credential_env)
        if not key:
            raise RuntimeError(
                f"missing API credential: set the {self.credential_env} environment variable"
            )
        body = {"model": self.model, "messages": messages, "temperature": self.temperature}
        request = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=json.dumps(body).encode(),
            headers={"Authorization": f"Bearer {key}", "Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as resp:
            return json.loads(resp.read())["choices"][0]["message"]["content"]


class DistillError(RuntimeError):
    pass


def distill_remote(
    prompt: DistillPrompt,
    client: ChatClient,
    cache_dir,
    lexicon: frozenset = corpus.DEFAULT_ENTITY_LEXICON,
    max_attempts: int = 3,
    backoff: float = 1.0,
    sleep: Callable[[float], None] = time.sleep,
) -> DistilledReport:
    """Distill via the remote client with caching and retries.

    Responses are cached on disk keyed by a content hash of the report,
    entity list and prompt text; a hit never touches the network. Transport
    failures retry with exponential backoff (``backoff * 2**attempt``)
    up to ``max_attempts``; parse failures are not retried.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache_path = cache_dir / f"{prompt.cache_key()}.json"

    if cache_path.exists():
        raw = json.loads(cache_path.read_text())["raw"]
        sentences, _ = parse_distilled(raw, lexicon)
        return DistilledReport(sentences=sentences, raw=raw, provenance=PROVENANCE_CACHE)

    last_error: Optional[Exception] = None
    raw = None
    for attempt in range(max_attempts):
        try:
            raw = client.complete(prompt.messages())
            break
        except Exception as exc:  # transport errors; parse errors raised below
            last_error = exc
            if attempt + 1 < max_attempts:
                sleep(backoff * (2.0**attempt))
    if raw is None:
        raise DistillError(
            f"distillation failed after {max_attempts} attempts: {last_error}"
        ) from last_error

    sentences, _ = parse_distilled(raw, lexicon)
    tmp = cache_path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"raw": raw}))
    os.replace(tmp, cache_path)
    return DistilledReport(sentences=sentences, raw=raw, provenance=PROVENANCE_REMOTE)


def concat_input(original: TokenSeq, distilled: TokenSeq, max_len: Optional[int] = None) -> TokenSeq:
    """Join original and distilled tokens with a recorded boundary.

    The joined sequence keeps its first ``max_len`` tokens, so the
    distilled segment is cut first; the boundary always equals the kept
    original length.
    """
    surfaces = (original.surfaces + distilled.surfaces)[:max_len]
    ids = np.concatenate([original.ids, distilled.ids])[:max_len]
    return TokenSeq(surfaces=surfaces, ids=ids, boundary=min(len(original), len(surfaces)))
