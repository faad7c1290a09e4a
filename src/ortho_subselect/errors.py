"""The package's one error type. Every error it raises on purpose, for a
rejected matrix, subset or argument or a sampler that cannot place its
points, is an :class:`OrthoSubselectError` (a ValueError) whose message names
the defect."""


class OrthoSubselectError(ValueError):
    """A rejected input or a failed sampler; the message says which."""
