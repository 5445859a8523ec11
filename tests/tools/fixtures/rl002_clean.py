"""Fixture: clean twin of rl002_bad — with-managed, finally-paired,
and ownership-transferring creations."""


def managed(create_block, nbytes):
    """Context-managed creation."""
    with create_block(nbytes) as block:
        return block.size


def paired(create_block, fill, nbytes):
    """try/finally-paired creation."""
    block = create_block(nbytes)
    try:
        fill(block)
    finally:
        block.unlink()
        block.close()


def transfer(create_block, nbytes):
    """Ownership transfer: the caller receives the block."""
    block = create_block(nbytes)
    return block


def consume(attach_block, name):
    """Attach-side close (never unlink) is fine."""
    client = attach_block(name)
    client.close()
