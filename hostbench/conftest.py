"""Make the checkout's ``repro`` importable for the benchmark's tests."""

import run

run.ensure_repro_importable()
