"""Distillation: prompt assembly, parsing, rule-based path, remote client."""

import http.server
import json
import threading
import urllib.error
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairmask import corpus, distill


def annotate_text(text):
    vocab = corpus.Vocabulary.from_texts([text])
    return corpus.annotate(corpus.tokenize(text, vocab))


class TestBuildPrompt:
    def test_report_verbatim_and_entities_joined(self):
        p = distill.build_prompt("Report body here.", ["aorta", "inflation", "effusion"])
        q = p.query()
        assert "Given the report:\nReport body here.\n" in q
        assert "Entities: aorta, inflation, effusion.\n" in q
        assert q.endswith("Conclusion:")

    def test_default_template_is_wired(self):
        p = distill.build_prompt("r", ["edema"])
        assert p.query().startswith(distill.DEFAULT_EXAMPLE_BLOCK + "\n")
        msgs = p.messages()
        assert [m["role"] for m in msgs] == ["system", "user", "user"]
        assert msgs[0]["content"] == distill.DEFAULT_SYSTEM_MESSAGE
        assert msgs[1]["content"] == distill.DEFAULT_INSTRUCTION
        assert msgs[2]["content"] == p.query()

    def test_entities_deduped_in_order(self):
        p = distill.build_prompt("r", ["edema", "mass", "edema"])
        assert p.entities == ("edema", "mass")

    def test_empty_entities_raise(self):
        with pytest.raises(ValueError, match="empty"):
            distill.build_prompt("r", [])

    def test_cache_key_sensitivity(self):
        base = distill.build_prompt("r", ["edema"])
        assert base.cache_key() == distill.build_prompt("r", ["edema"]).cache_key()
        assert base.cache_key() != distill.build_prompt("r2", ["edema"]).cache_key()
        assert base.cache_key() != distill.build_prompt("r", ["mass"]).cache_key()

    def test_cache_key_is_stable_across_releases(self):
        # keys written by earlier releases name the files of existing caches
        assert distill.build_prompt("r", ["edema"]).cache_key() == (
            "84cc9eadfd90bd3f44982f4bb3e231c9e6fadf9a137cce2d61f20ed78e237c22"
        )
        assert distill.build_prompt("there is no edema. there is mild nodule.",
                                    ["edema", "nodule", "edema"]).cache_key() == (
            "577a745bb87b5f9b2dccfcb0413f9574ea4f36c4d722ba8a9e0ce2b6e7f605bf"
        )


class TestParse:
    def test_is_sentence(self):
        sentences, dropped = distill.parse_distilled("There is moderate pleural effusion.")
        assert dropped == 0
        (s,) = sentences
        assert (s.modality, s.descriptor, s.entity) == ("is", "moderate pleural", "effusion")
        assert not s.off_lexicon

    def test_may_sentence(self):
        sentences, _ = distill.parse_distilled("There may be pneumonia.")
        assert sentences[0].modality == "may"
        assert sentences[0].descriptor == "be"

    def test_off_grammar_line_dropped_with_count(self):
        sentences, dropped = distill.parse_distilled(
            "There is mild edema.\nLungs look fine today."
        )
        assert len(sentences) == 1
        assert dropped == 1

    def test_off_lexicon_entity_kept_and_flagged(self):
        sentences, _ = distill.parse_distilled("There is no acute cardiopulmonary process.")
        assert sentences[0].off_lexicon
        assert sentences[0].entity == "process"

    def test_multiple_sentences_one_line(self):
        sentences, dropped = distill.parse_distilled("There is mild edema. There is no mass.")
        assert [s.entity for s in sentences] == ["edema", "mass"]
        assert dropped == 0

    def test_plural_entity_folds_for_lexicon_check(self):
        sentences, _ = distill.parse_distilled("There is bilateral effusions.")
        assert not sentences[0].off_lexicon

    def test_nothing_parseable_raises(self):
        with pytest.raises(ValueError, match="no parseable"):
            distill.parse_distilled("Completely unrelated text without the pattern")

    def test_empty_response_is_empty(self):
        sentences, dropped = distill.parse_distilled("")
        assert sentences == [] and dropped == 0


LEX_WORDS = sorted(corpus.DEFAULT_ENTITY_LEXICON)
DESCRIPTOR_WORDS = ["mild", "moderate", "severe", "no", "patchy", "bilateral"]


@settings(max_examples=80, deadline=None)
@given(
    modality=st.sampled_from(["is", "may"]),
    descriptor=st.lists(st.sampled_from(DESCRIPTOR_WORDS), max_size=3).map(" ".join),
    entity=st.sampled_from(LEX_WORDS),
)
def test_render_parse_round_trip(modality, descriptor, entity):
    s = distill.DistilledSentence(modality, descriptor, entity)
    parsed, dropped = distill.parse_distilled(s.render())
    assert dropped == 0
    assert parsed == [s]


class TestRuleBased:
    def test_severity_span_kept(self):
        out = distill.distill_rule_based(annotate_text("there is mild edema."))
        assert out.raw == "There is mild edema."
        assert out.provenance == "rule_based"

    def test_negative_span_rewritten_to_no(self):
        out = distill.distill_rule_based(annotate_text("clearly no pneumonia."))
        assert out.raw == "There is no pneumonia."

    def test_empty_span_uncertain(self):
        out = distill.distill_rule_based(annotate_text("mass"))
        assert out.raw == "There may be mass."

    def test_no_mentions_empty_report(self):
        out = distill.distill_rule_based(annotate_text("all findings unchanged"))
        assert out.sentences == [] and out.raw == ""

    def test_deterministic(self):
        ann = annotate_text("there is severe consolidation. no effusion.")
        assert distill.distill_rule_based(ann) == distill.distill_rule_based(ann)

    def test_output_always_parses_with_zero_drops(self):
        texts = [
            "there is mild pneumonia. no effusion. moderate edema persists.",
            "stable appearance of bilateral effusions.",
            "pneumothorax",
        ]
        for text in texts:
            out = distill.distill_rule_based(annotate_text(text))
            if not out.raw:
                continue
            parsed, dropped = distill.parse_distilled(out.raw)
            assert dropped == 0
            assert parsed == out.sentences


class CountingClient:
    def __init__(self, response, failures=0):
        self.response = response
        self.failures = failures
        self.calls = 0

    def complete(self, messages):
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionError(f"synthetic failure {self.calls}")
        return self.response


class TestRemote:
    RESPONSE = "There is mild edema.\nThere is no mass."

    def test_success_and_cache_hit(self, tmp_path):
        prompt = distill.build_prompt("report text", ["edema", "mass"])
        client = CountingClient(self.RESPONSE)
        first = distill.distill_remote(prompt, client, tmp_path)
        assert client.calls == 1
        assert first.provenance == "remote"
        assert [s.entity for s in first.sentences] == ["edema", "mass"]

        second = distill.distill_remote(prompt, client, tmp_path)
        assert client.calls == 1  # no network on hit
        assert second.provenance == "cache"
        assert second.sentences == first.sentences

    def test_retry_with_exponential_backoff(self, tmp_path):
        prompt = distill.build_prompt("r", ["edema"])
        client = CountingClient("There is mild edema.", failures=2)
        naps = []
        out = distill.distill_remote(
            prompt, client, tmp_path, backoff=1.0, sleep=naps.append
        )
        assert client.calls == 3
        assert naps == [1.0, 2.0]
        assert out.provenance == "remote"

    def test_exhausted_retries_surface_last_error(self, tmp_path):
        prompt = distill.build_prompt("r", ["edema"])
        client = CountingClient("unused", failures=99)
        with pytest.raises(distill.DistillError, match="3 attempts"):
            distill.distill_remote(prompt, client, tmp_path, sleep=lambda s: None)
        assert client.calls == 3

    def test_cache_file_is_content_addressed(self, tmp_path):
        prompt = distill.build_prompt("r", ["edema"])
        distill.distill_remote(prompt, CountingClient("There is mild edema."), tmp_path)
        expected = tmp_path / f"{prompt.cache_key()}.json"
        assert expected.exists()
        assert json.loads(expected.read_text())["raw"] == "There is mild edema."

    def test_http_client_requires_env_credential(self, monkeypatch):
        monkeypatch.delenv(distill.DEFAULT_CREDENTIAL_ENV, raising=False)
        client = distill.HttpChatClient("http://example.invalid", "some-model")
        with pytest.raises(RuntimeError, match=distill.DEFAULT_CREDENTIAL_ENV):
            client.complete([{"role": "user", "content": "x"}])


@contextmanager
def chat_server(status, reply):
    """A local chat-completions endpoint on 127.0.0.1 that answers every
    POST with ``status`` and the JSON ``reply``; yields its base URL and
    the list of (path, headers, body) requests it received."""
    received = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            received.append((self.path, dict(self.headers), json.loads(body)))
            payload = json.dumps(reply).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1", received
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestHttpChatClient:
    MESSAGES = [{"role": "user", "content": "summarise"}]

    def test_posts_json_with_bearer_header(self, monkeypatch):
        monkeypatch.setenv(distill.DEFAULT_CREDENTIAL_ENV, "sk-test")
        reply = {"choices": [{"message": {"content": "There is mild edema."}}]}
        with chat_server(200, reply) as (url, received):
            client = distill.HttpChatClient(url + "/", "some-model", temperature=0.5, timeout=5)
            assert client.complete(self.MESSAGES) == "There is mild edema."
        [(path, headers, body)] = received
        assert path == "/v1/chat/completions"
        assert headers["Authorization"] == "Bearer sk-test"
        assert headers["Content-Type"] == "application/json"
        assert body == {"model": "some-model", "messages": self.MESSAGES, "temperature": 0.5}

    def test_error_status_raises(self, monkeypatch):
        monkeypatch.setenv(distill.DEFAULT_CREDENTIAL_ENV, "sk-test")
        with chat_server(503, {"error": "overloaded"}) as (url, received):
            client = distill.HttpChatClient(url, "some-model", timeout=5)
            with pytest.raises(urllib.error.HTTPError) as info:
                client.complete(self.MESSAGES)
        assert info.value.code == 503 and len(received) == 1

    def test_error_status_retried_by_distill_remote(self, monkeypatch, tmp_path):
        monkeypatch.setenv(distill.DEFAULT_CREDENTIAL_ENV, "sk-test")
        with chat_server(500, {}) as (url, received):
            client = distill.HttpChatClient(url, "some-model", timeout=5)
            prompt = distill.build_prompt("r", ["edema"])
            with pytest.raises(distill.DistillError, match="HTTP Error 500"):
                distill.distill_remote(prompt, client, tmp_path, sleep=lambda s: None)
        assert len(received) == 3


class TestConcat:
    def test_lengths_and_boundary(self):
        vocab = corpus.Vocabulary.from_texts(["a b c d e f g h i j", "k l m n o p"])
        orig = corpus.tokenize("a b c d e f g h i j", vocab)
        dist = corpus.tokenize("k l m n o p", vocab)
        cat = distill.concat_input(orig, dist)
        assert len(cat) == 16
        assert cat.boundary == 10
        assert cat.surfaces[:10] == orig.surfaces
        assert cat.surfaces[10:] == dist.surfaces

    def test_distilled_truncated_first(self):
        words_a = " ".join(f"w{i}" for i in range(60))
        words_b = " ".join(f"v{i}" for i in range(10))
        vocab = corpus.Vocabulary.from_texts([words_a, words_b])
        orig = corpus.tokenize(words_a, vocab)
        dist = corpus.tokenize(words_b, vocab)
        cat = distill.concat_input(orig, dist, max_len=64)
        assert len(cat) == 64
        assert cat.boundary == 60
        assert cat.surfaces[60:] == ["v0", "v1", "v2", "v3"]
