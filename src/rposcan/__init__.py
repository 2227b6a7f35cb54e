"""rposcan: relative-path-overwrite style-injection scanner and mock target."""

__version__ = "0.1.0"
