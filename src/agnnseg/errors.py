"""The error every file reader raises for malformed input."""


class FormatError(ValueError):
    """A file that does not follow its format; names the file and byte offset."""

    def __init__(self, path, offset, message):
        super().__init__(f"{path}: {message} at byte {offset}")
        self.path = path
        self.offset = offset
