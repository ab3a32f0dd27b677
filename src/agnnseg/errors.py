"""Errors that name what to fix: a malformed file, a bad setting, a small dataset."""


class FormatError(ValueError):
    """A file that does not follow its format; names the file and byte offset."""

    def __init__(self, path, offset, message):
        super().__init__(f"{path}: {message} at byte {offset}")
        self.path = path
        self.offset = offset


class FieldError(ValueError):
    """A settings object given a value outside its range; names the field."""

    def __init__(self, field, reason):
        super().__init__(f"{field} {reason}")
        self.field = field
        self.reason = reason


class DatasetError(ValueError):
    """A well-formed dataset that cannot serve the request; names its manifest."""
