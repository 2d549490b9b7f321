//! The live catalog: which datasets are resident, and the machinery to
//! attach, detach and reload them while other datasets keep serving.
//!
//! The catalog's lock discipline is the whole point: chunk loading (the
//! slow part — disk reads, checksum verification, decoding) happens
//! *outside* the lock, on the catalog's own `dataflow` pool. The write
//! lock is held only to swap an `Arc` in or out of the resident map, so
//! a multi-gigabyte attach never stalls an in-flight lookup — let alone
//! a release — on another dataset. Readers clone the `Arc` out and drop
//! the lock; a dataset detached mid-query stays alive until the last
//! holder lets go.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};

use dataflow::pool::ThreadPool;

use crate::store::{LoadedDataset, Store, StoreError};

/// A store directory plus the set of datasets currently resident.
///
/// A resident dataset is the loader's [`LoadedDataset`], shared: it is
/// immutable once published, and a reload swaps in a fresh one rather
/// than mutating it. Columns stay in their on-disk chunk layout, so the
/// catalog hands out shared chunk buffers, never a re-materialised
/// `Vec<f64>`, and an attach is the last copy the data ever sees.
pub struct Catalog {
    store: Store,
    pool: ThreadPool,
    resident: RwLock<HashMap<String, Arc<LoadedDataset>>>,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("root", &self.store.root())
            .field("attached", &self.attached())
            .finish()
    }
}

impl Catalog {
    /// Opens (creating if absent) the store at `root` with a loader
    /// pool of `threads` workers.
    ///
    /// # Errors
    ///
    /// Store root creation failures.
    pub fn open(root: impl Into<PathBuf>, threads: usize) -> Result<Catalog, StoreError> {
        Ok(Catalog {
            store: Store::open(root)?,
            pool: ThreadPool::new(threads.max(1)),
            resident: RwLock::new(HashMap::new()),
        })
    }

    /// The underlying store.
    #[must_use]
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Attaches (or, if already attached, reloads) a dataset. Returns
    /// the resident dataset and whether this replaced a previous
    /// residency.
    ///
    /// Loading happens before the write lock is taken; the lock is held
    /// only for the map insert. Two concurrent attaches of the same
    /// dataset both succeed — last write wins, both returned `Arc`s
    /// stay valid.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from loading; on error the previous residency
    /// (if any) is untouched.
    pub fn attach(&self, name: &str) -> Result<(Arc<LoadedDataset>, bool), StoreError> {
        let resident = Arc::new(self.store.load(name, Some(&self.pool))?);
        let previous = self
            .resident
            .write()
            .expect("catalog lock poisoned")
            .insert(name.to_string(), Arc::clone(&resident));
        Ok((resident, previous.is_some()))
    }

    /// Detaches a dataset. In-flight holders of the `Arc` finish
    /// normally; new lookups miss.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when the dataset is not attached.
    pub fn detach(&self, name: &str) -> Result<Arc<LoadedDataset>, StoreError> {
        self.resident
            .write()
            .expect("catalog lock poisoned")
            .remove(name)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))
    }

    /// The resident dataset, if attached.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<LoadedDataset>> {
        self.resident
            .read()
            .expect("catalog lock poisoned")
            .get(name)
            .cloned()
    }

    /// Names of attached datasets, sorted.
    #[must_use]
    pub fn attached(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .resident
            .read()
            .expect("catalog lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort_unstable();
        names
    }

    /// Names of datasets published on disk, sorted (attached or not).
    ///
    /// # Errors
    ///
    /// Store listing failures.
    pub fn available(&self) -> Result<Vec<String>, StoreError> {
        self.store.datasets()
    }

    /// Number of attached datasets.
    #[must_use]
    pub fn attached_count(&self) -> usize {
        self.resident.read().expect("catalog lock poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::IngestOptions;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("upa_catalog_tests")
            .join(format!("{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seeded(root: &PathBuf) -> Catalog {
        let catalog = Catalog::open(root, 2).unwrap();
        let columns = vec![("v".to_string(), vec![1.0, 2.0, 3.0])];
        catalog
            .store()
            .ingest("d1", &columns, &IngestOptions::default())
            .unwrap();
        catalog
            .store()
            .ingest("d2", &columns, &IngestOptions::default())
            .unwrap();
        catalog
    }

    #[test]
    fn attach_detach_lifecycle() {
        let root = temp_root("lifecycle");
        let catalog = seeded(&root);
        assert_eq!(catalog.available().unwrap(), vec!["d1", "d2"]);
        assert!(catalog.attached().is_empty());

        let (resident, reloaded) = catalog.attach("d1").unwrap();
        assert!(!reloaded);
        assert_eq!(resident.rows, 3);
        assert_eq!(catalog.attached(), vec!["d1"]);
        assert_eq!(resident.column("v").map(|c| c.len()), Some(3));

        // Reload reports the replacement; a pre-reload Arc stays valid.
        let before = catalog.get("d1").unwrap();
        let (_, reloaded) = catalog.attach("d1").unwrap();
        assert!(reloaded);
        assert_eq!(before.rows, 3);

        catalog.detach("d1").unwrap();
        assert!(catalog.get("d1").is_none());
        assert!(matches!(catalog.detach("d1"), Err(StoreError::NotFound(_))));
        assert_eq!(catalog.attached_count(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn attach_unknown_dataset_fails_cleanly() {
        let root = temp_root("unknown");
        let catalog = seeded(&root);
        assert!(matches!(
            catalog.attach("nope"),
            Err(StoreError::NotFound(_))
        ));
        assert!(catalog.attached().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reload_picks_up_new_data() {
        let root = temp_root("reload");
        let catalog = seeded(&root);
        catalog.attach("d1").unwrap();
        let grown = vec![("v".to_string(), vec![1.0, 2.0, 3.0, 4.0])];
        catalog
            .store()
            .ingest(
                "d1",
                &grown,
                &IngestOptions {
                    overwrite: true,
                    ..Default::default()
                },
            )
            .unwrap();
        let (resident, reloaded) = catalog.attach("d1").unwrap();
        assert!(reloaded);
        assert_eq!(resident.rows, 4);
        assert_eq!(catalog.get("d1").unwrap().rows, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_attaches_and_lookups() {
        let root = temp_root("concurrent");
        let catalog = Arc::new(seeded(&root));
        let mut workers = Vec::new();
        for i in 0..8 {
            let catalog = Arc::clone(&catalog);
            workers.push(std::thread::spawn(move || {
                let name = if i % 2 == 0 { "d1" } else { "d2" };
                for _ in 0..20 {
                    catalog.attach(name).unwrap();
                    if let Some(r) = catalog.get(name) {
                        assert_eq!(r.rows, 3);
                    }
                    let _ = catalog.detach(name);
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
