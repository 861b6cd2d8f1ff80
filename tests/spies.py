"""A spy on a module's function, for tests that check which calls the code makes."""

import builtins


def spy(patch, owner, name: str, note, calls: list | None = None) -> list:
    """Replace owner.name, or the builtin that owner uses by that name, through patch, a pytest
    MonkeyPatch, with a wrapper that appends note(result, *args) of each call to calls, or to
    a new list; result is None for a call that raised. Returns the list."""
    calls = [] if calls is None else calls
    real = getattr(owner, name, getattr(builtins, name, None))

    def spied(*args):
        result = None
        try:
            result = real(*args)
            return result
        finally:
            calls.append(note(result, *args))

    patch.setattr(owner, name, spied, raising=False)
    return calls
