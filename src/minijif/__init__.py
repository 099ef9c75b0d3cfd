"""MiniJif: a static information-flow checker with decentralized security labels."""
