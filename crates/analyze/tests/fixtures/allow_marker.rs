//! Fixture for the `presp-analyze: allow` line marker: a forbidden import
//! carrying the marker is suppressed, while the same pattern on an
//! unmarked line is still flagged.

use std::sync::OnceLock; // presp-analyze: allow — init-once cache
use std::sync::Mutex; // FLAG:sync-facade

static CACHE: OnceLock<Mutex<u32>> = OnceLock::new();
