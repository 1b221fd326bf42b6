"""Reference implementations the production engines are tested against."""
