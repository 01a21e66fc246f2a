"""Tests of the persistent content-addressed store (repro.store)."""

import errno
import json
import multiprocessing
import os

import pytest

from repro.api import SynthesisRequest, SynthesisResponse
from repro.store import (
    BlobStore,
    STORE_ROOT_ENV,
    STORE_SCHEMA_VERSION,
    content_key,
    default_store_root,
    open_store,
)
from repro.suite.registry import get_benchmark

SUM = get_benchmark("sum")


def make_request(**overrides) -> SynthesisRequest:
    fields = dict(
        program=SUM.source,
        mode="weak",
        precondition=SUM.precondition,
        objective=SUM.objective(),
        options=SUM.options(upsilon=1),
        request_id="sum",
    )
    fields.update(overrides)
    return SynthesisRequest(**fields)


# -- keys --------------------------------------------------------------------------


def test_content_key_is_stable_and_order_sensitive():
    assert content_key("a", 1, {"x": [1, 2]}) == content_key("a", 1, {"x": [1, 2]})
    assert content_key("a", 1) != content_key(1, "a")
    key = content_key("anything")
    assert len(key) == 64 and set(key) <= set("0123456789abcdef")


def test_response_key_ignores_request_id_but_not_payload(tmp_path):
    store = open_store(tmp_path)
    base = store.responses.key_for(make_request(), "opts")
    assert store.responses.key_for(make_request(request_id="other"), "opts") == base
    assert store.responses.key_for(make_request(options=SUM.options(upsilon=2)), "opts") != base
    assert store.responses.key_for(make_request(), "different-opts") != base


def test_solve_key_shares_across_verification_tiers(tmp_path):
    store = open_store(tmp_path)
    none_tier = make_request()
    exact_tier = make_request(options=SUM.options(upsilon=1, verify="exact"))
    assert store.solves.key_for(none_tier, "opts") == store.solves.key_for(exact_tier, "opts")
    assert store.solves.key_for(none_tier, "opts") != store.solves.key_for(
        none_tier, "different-opts"
    )


# -- blob mechanics ----------------------------------------------------------------


def test_blob_roundtrip_and_sharded_layout(tmp_path):
    blobs = BlobStore(tmp_path)
    key = content_key("payload")
    assert blobs.put("responses", key, {"v": 1, "data": [1, 2]})
    assert blobs.get("responses", key) == {"v": 1, "data": [1, 2]}
    path = blobs.path_for("responses", key)
    assert os.path.exists(path)
    # Sharded: <root>/<namespace>/<key[:2]>/<key>.json
    assert os.path.relpath(path, tmp_path) == os.path.join("responses", key[:2], f"{key}.json")
    stats = blobs.stats()
    assert stats["store_blob_writes"] == 1 and stats["store_blob_reads"] == 1


def test_usage_reports_per_namespace_blob_and_byte_counts(tmp_path):
    blobs = BlobStore(tmp_path)
    key_a, key_b = content_key("a"), content_key("b")
    blobs.put("responses", key_a, {"v": 1})
    blobs.put("responses", key_b, {"v": 2, "data": list(range(50))})
    blobs.put("solves", key_a, {"v": 3})
    usage = blobs.usage(("responses", "solves", "certificates"))
    assert usage["store_responses_blobs"] == 2.0
    assert usage["store_solves_blobs"] == 1.0
    assert usage["store_certificates_blobs"] == 0.0  # namespace not created yet
    assert usage["store_responses_bytes"] > usage["store_solves_bytes"] > 0.0
    assert usage["store_total_bytes"] == (
        usage["store_responses_bytes"] + usage["store_solves_bytes"]
    )
    # Auto-discovery walks whatever namespaces exist on disk.
    assert blobs.usage()["store_total_bytes"] == usage["store_total_bytes"]
    # The engine-store stats document carries the usage block (this is what
    # GET /v1/stats serves).
    stats = open_store(tmp_path).stats()
    assert stats["store_total_bytes"] == usage["store_total_bytes"]
    assert stats["store_responses_blobs"] == 2.0


def test_blob_write_once_skips_then_overwrites(tmp_path):
    blobs = BlobStore(tmp_path)
    key = content_key("k")
    assert blobs.put("solves", key, {"first": True})
    assert not blobs.put("solves", key, {"second": True})
    assert blobs.get("solves", key) == {"first": True}
    assert blobs.put("solves", key, {"second": True}, overwrite=True)
    assert blobs.get("solves", key) == {"second": True}
    assert blobs.stats()["store_blob_write_skips"] == 1


def test_invalid_namespace_and_key_are_rejected(tmp_path):
    blobs = BlobStore(tmp_path)
    with pytest.raises(ValueError):
        blobs.path_for("../escape", content_key("k"))
    with pytest.raises(ValueError):
        blobs.path_for("responses", "../../etc/passwd")
    with pytest.raises(ValueError):
        blobs.path_for("responses", "UPPER")


def test_keys_and_count_enumerate_namespace(tmp_path):
    blobs = BlobStore(tmp_path)
    written = {content_key("k", i) for i in range(5)}
    for key in written:
        blobs.put("certificates", key, {"v": 1})
    assert set(blobs.keys("certificates")) == written
    assert blobs.count("certificates") == 5
    assert blobs.count("responses") == 0


# -- the miss-and-repair boundary --------------------------------------------------


def test_truncated_blob_degrades_to_miss_and_is_repaired(tmp_path):
    blobs = BlobStore(tmp_path)
    key = content_key("will-truncate")
    blobs.put("responses", key, {"v": 1, "payload": "x" * 256})
    path = blobs.path_for("responses", key)
    with open(path, "r+b") as handle:  # hand-truncate mid-document
        handle.truncate(os.path.getsize(path) // 2)
    assert blobs.get("responses", key) is None
    assert blobs.stats()["store_blob_corrupt"] == 1
    assert not os.path.exists(path)  # repaired: the corpse is gone
    # The slot accepts a rewrite afterwards.
    assert blobs.put("responses", key, {"v": 1, "payload": "fresh"})
    assert blobs.get("responses", key) == {"v": 1, "payload": "fresh"}


def test_short_writes_never_publish_a_truncated_blob(tmp_path, monkeypatch):
    # write(2) may write part of its buffer and report no error, as on a
    # filling disk; the next call then fails with ENOSPC.
    real_write = os.write
    blobs = BlobStore(tmp_path)
    payload = {"v": 1, "payload": "x" * 1000}

    def half_write(fd, data):
        return real_write(fd, bytes(data[: max(1, len(data) // 2)]))

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", half_write)
        assert blobs.put("responses", content_key("short"), payload)
    assert blobs.get("responses", content_key("short")) == payload

    wrote = []

    def filling_disk(fd, data):
        if wrote:
            raise OSError(errno.ENOSPC, "No space left on device")
        wrote.append(len(data))
        return real_write(fd, bytes(data[: len(data) // 2]))

    key = content_key("full-disk")
    with monkeypatch.context() as patch:
        patch.setattr(os, "write", filling_disk)
        assert not blobs.put("responses", key, payload)
    stats = blobs.stats()
    assert stats["store_blob_write_failures"] == 1
    assert stats["store_blob_writes"] == 1  # the first put only
    assert blobs.get("responses", key) is None
    shard = os.path.dirname(blobs.path_for("responses", key))
    assert not [name for name in os.listdir(shard) if name.startswith(".tmp-")]


def test_non_object_blob_degrades_to_miss(tmp_path):
    blobs = BlobStore(tmp_path)
    key = content_key("not-an-object")
    path = blobs.path_for("responses", key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        handle.write("[1, 2, 3]")
    assert blobs.get("responses", key) is None


def test_schema_drifted_response_blob_is_a_view_level_miss(tmp_path):
    store = open_store(tmp_path)
    key = store.responses.key_for(make_request(), "opts")
    # A decodable blob whose document no longer matches the response codec.
    store.blobs.put(
        "responses", key, {"v": STORE_SCHEMA_VERSION, "response": {"status": "bogus"}}
    )
    assert store.responses.load(key) is None
    assert not os.path.exists(store.blobs.path_for("responses", key))


def test_foreign_schema_version_is_a_miss_without_repair(tmp_path):
    store = open_store(tmp_path)
    key = content_key("future")
    store.blobs.put("responses", key, {"v": STORE_SCHEMA_VERSION + 1, "response": {}})
    assert store.responses.load(key) is None
    # A *newer* schema is not corruption: leave it for the newer code.
    assert os.path.exists(store.blobs.path_for("responses", key))


# -- view gating -------------------------------------------------------------------


def test_response_store_only_persists_verified_successes(tmp_path):
    store = open_store(tmp_path)
    key = content_key("gate")
    no_invariant = SynthesisResponse(mode="weak", status="no_invariant")
    assert not store.responses.store(key, no_invariant)
    unverified = SynthesisResponse(
        mode="weak", status="ok", verification={"verified": False}
    )
    assert not store.responses.store(key, unverified)
    ok = SynthesisResponse(mode="weak", status="ok", invariants=[{"assertions": []}])
    assert store.responses.store(key, ok)
    loaded = store.responses.load(key)
    assert loaded is not None and loaded.served_from_store is False
    assert loaded == ok


def test_certificate_store_roundtrip(tmp_path):
    from repro.certify.certificate import certificate_fingerprint

    store = open_store(tmp_path)
    payload = {"kind": "certificate", "denominator": "7", "assignment": {"c": "1/7"}}
    key, wrote = store.certificates.put(payload)
    assert wrote and key == certificate_fingerprint(payload)
    again, wrote_again = store.certificates.put(payload)
    assert again == key and not wrote_again


# -- environment and defaults ------------------------------------------------------


def test_default_store_root_honours_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(STORE_ROOT_ENV, str(tmp_path / "deployment"))
    assert default_store_root() == str(tmp_path / "deployment")


def test_open_store_coerces_every_spec(tmp_path):
    store = open_store(tmp_path)
    assert open_store(store) is store
    assert open_store(store.blobs).root == store.root
    assert open_store(str(tmp_path)).root == store.root


# -- concurrent writers ------------------------------------------------------------


def _hammer(args):
    root, worker, rounds = args
    blobs = BlobStore(root)
    bad = 0
    for i in range(rounds):
        key = content_key("shared", i % 7)
        # Everyone races to publish the same 7 slots with self-identifying
        # payloads; interleaved writers must never produce a torn read.
        blobs.put("responses", key, {"v": 1, "worker": worker, "round": i, "pad": "y" * 512})
        seen = blobs.get("responses", key)
        if seen is not None and (seen.get("v") != 1 or len(seen.get("pad", "")) != 512):
            bad += 1
    return bad


def test_concurrent_writers_never_corrupt_a_blob(tmp_path):
    rounds = 40
    with multiprocessing.get_context("spawn").Pool(3) as pool:
        torn = pool.map(_hammer, [(str(tmp_path), worker, rounds) for worker in range(3)])
    assert sum(torn) == 0
    blobs = BlobStore(tmp_path)
    assert blobs.count("responses") == 7
    for key in blobs.keys("responses"):
        payload = blobs.get("responses", key)
        assert payload is not None and len(payload["pad"]) == 512
        # Write-once means the first publisher won; the blob is one writer's
        # complete document, never a blend.
        assert payload["worker"] in (0, 1, 2)
    assert blobs.stats()["store_blob_corrupt"] == 0
