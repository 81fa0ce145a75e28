import os
import stat

import pytest

from conftest import make_random_model
from kdia import files, harness, nn
from kdia.errors import ConfigError, ProtocolError

# the writers that replace an existing output file, each with its typed error
WRITERS = {
    "write": (lambda path: files.write(path, b"new bytes\n", ConfigError), ConfigError),
    "write_metrics": (lambda path: harness.write_metrics([], path), ConfigError),
    "save_checkpoint": (
        lambda path: nn.save_checkpoint(make_random_model(1, [3, 2], split_index=1), path),
        ProtocolError,
    ),
}


class TestRead:
    def test_bytes_and_text_with_universal_newlines(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\r\nb\rc\n\xc3\xa9")
        assert files.read(path, ConfigError) == b"a\r\nb\rc\n\xc3\xa9"
        assert files.read(path, ConfigError, text=True) == "a\nb\nc\né"

    def test_directory_raises_the_given_error_naming_the_path(self, tmp_path):
        with pytest.raises(ProtocolError, match=f"{tmp_path}: Is a directory"):
            files.read(tmp_path, ProtocolError)


class TestWrite:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_replace_keeps_previous_bytes_and_leaves_no_temp_file(
        self, tmp_path, monkeypatch, writer
    ):
        write, error = WRITERS[writer]
        path = tmp_path / "out"
        path.write_bytes(b"previous bytes\n")

        def failing_replace(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(error, match=f"{path}: Permission denied"):
            write(path)
        assert path.read_bytes() == b"previous bytes\n"
        assert os.listdir(tmp_path) == ["out"]

    def test_interrupted_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out"
        path.write_bytes(b"previous bytes\n")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            files.write(path, b"new bytes\n", ConfigError)
        assert path.read_bytes() == b"previous bytes\n"
        assert os.listdir(tmp_path) == ["out"]

    def test_new_file_takes_the_umask_mode(self, tmp_path):
        old = os.umask(0o022)
        try:
            files.write(tmp_path / "out", b"x", ConfigError)
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "out").st_mode) == 0o644

    def test_symlink_at_the_target_is_replaced_not_written_through(self, tmp_path):
        target = tmp_path / "target"
        target.write_bytes(b"kept\n")
        link = tmp_path / "link"
        link.symlink_to(target)
        files.write(link, b"new\n", ConfigError)
        assert not link.is_symlink()
        assert link.read_bytes() == b"new\n"
        assert target.read_bytes() == b"kept\n"


class TestMakeOutDir:
    def test_creates_nested_directory_and_returns_file_paths(self, tmp_path):
        out = tmp_path / "a" / "b"
        paths = files.make_out_dir(out, "x.csv", "y.csv")
        assert out.is_dir()
        assert paths == [os.path.join(out, "x.csv"), os.path.join(out, "y.csv")]
        assert not os.listdir(out)
