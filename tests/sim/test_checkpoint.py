"""Atomic write-then-rename tests for checkpoint persistence."""

import pytest


class TestAtomicWrite:
    def test_replaces_content_and_leaves_no_tmp(self, tmp_path):
        from repro.sim.checkpoint import atomic_write_text

        path = tmp_path / "out.json"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_preserves_original(self, tmp_path, monkeypatch):
        import os as _os

        from repro.sim import checkpoint

        path = tmp_path / "out.json"
        checkpoint.atomic_write_text(path, "precious")

        def refuse(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(checkpoint.os, "replace", refuse)
        with pytest.raises(OSError):
            checkpoint.atomic_write_text(path, "torn")
        assert path.read_text() == "precious"
