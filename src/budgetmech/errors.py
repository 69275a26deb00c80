"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid input to a library operation (unknown ids, malformed specs)."""


class SchemaError(InputError):
    """Instance or config file does not match the expected JSON schema.

    ``field`` names the offending field so CLI error messages can point at it.
    """

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field, self.message = field, message


class CapExceeded(InputError):
    """Instance is larger than an exhaustive-enumeration cap allows."""
