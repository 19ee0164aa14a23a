//! Every WAL image an append can leave behind, recovered.
//!
//! A checkpoint recycles the log: it bumps the header's epoch and the next
//! cycle's appends overwrite the previous cycle's bytes from the start. A
//! crash during one of those appends leaves a file whose first `t` bytes
//! are the new cycle's and whose rest is the old cycle's, for any byte
//! `t`. This suite builds every such file, plus the two where only one
//! side's header landed, and recovers each into a blank data file: exactly
//! the new cycle's commits that lie wholly before the cut may replay, and
//! never an image of the old cycle.
//!
//! Run it alone with `cargo test --release -p pyro-storage --test
//! wal_crash_images -- --nocapture` to see the state count and the time.

use pyro_storage::{
    FileDevice, PageDevice, Wal, WalReplay, FILE_HEADER_LEN, SLOT_HEADER_LEN, WAL_HEADER_LEN,
};
use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

const BLOCK: usize = 128;
/// Every image is this long, so every record of every cycle is the same
/// size and an old record always starts where a new one ends.
const IMAGE: usize = 100;
/// Page ids the cycles write; anything else read back is an error.
const PAGES: u64 = 8;
/// Bytes of one commit: two page images and a marker.
const COMMIT_LEN: usize = 2 * (25 + IMAGE) + 25;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn image(tag: &str) -> Vec<u8> {
    let mut bytes = tag.as_bytes().to_vec();
    bytes.resize(IMAGE, b'.');
    bytes
}

/// One commit: page ids and their images.
type Commit = Vec<(u64, Vec<u8>)>;

fn old_commits() -> Vec<Commit> {
    (0..4)
        .map(|i| {
            (0..2)
                .map(|j| (2 * i + j, image(&format!("old {i} page {}", 2 * i + j))))
                .collect()
        })
        .collect()
}

/// Overwrites pages the old cycle wrote, so a stale replay would show.
fn new_commits() -> Vec<Commit> {
    (0..2)
        .map(|j| {
            [j, PAGES - 1 - j]
                .into_iter()
                .map(|page| (page, image(&format!("new {j} page {page}"))))
                .collect()
        })
        .collect()
}

fn write(wal: &Wal, commits: &[Commit]) {
    for commit in commits {
        for (page, bytes) in commit {
            wal.append_page(*page, bytes).unwrap();
        }
        wal.append_commit().unwrap();
    }
    wal.sync().unwrap();
}

/// What each page must read after `commits` replayed into a fresh file.
fn expected_pages(commits: &[Commit]) -> Vec<Option<Vec<u8>>> {
    let mut pages = vec![None; PAGES as usize];
    for (page, bytes) in commits.iter().flatten() {
        pages[*page as usize] = Some(bytes.clone());
    }
    pages
}

/// One crash state's files, rewritten in place for every state: a WAL as
/// long as the old cycle and a blank data file with a free slot for every
/// page. Neither file ever shrinks, so no state frees a block — on a
/// `discard` mount, freeing fsynced blocks costs tens of milliseconds a
/// file, which would make this suite take minutes.
struct State {
    wal: PathBuf,
    data: PathBuf,
    blank: Vec<u8>,
}

impl State {
    fn new(dir: &Path) -> State {
        let data = dir.join("state-data.pyro");
        drop(FileDevice::create_with_block_size(&data, BLOCK).unwrap());
        let mut blank = std::fs::read(&data).unwrap();
        assert_eq!(blank.len() as u64, FILE_HEADER_LEN);
        blank.resize(blank.len() + PAGES as usize * (SLOT_HEADER_LEN + BLOCK), 0);
        State {
            wal: dir.join("state-wal.pyro"),
            data,
            blank,
        }
    }

    /// Recovers `log` into the blank data file and returns what replayed
    /// and what every page reads.
    fn recover(&self, log: &[u8]) -> (WalReplay, Vec<Option<Vec<u8>>>) {
        overwrite(&self.wal, log);
        overwrite(&self.data, &self.blank);
        let dev = FileDevice::open(&self.data).unwrap();
        let replay = Wal::open_or_create(&self.wal)
            .unwrap()
            .recover(&dev)
            .unwrap();
        let pages = (0..PAGES)
            .map(|id| dev.read_page(id).ok().map(|p| p.to_vec()))
            .collect();
        (replay, pages)
    }
}

/// Writes `bytes` over the start of `path`, which must not be longer.
fn overwrite(path: &Path, bytes: &[u8]) {
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .unwrap();
    file.write_all_at(bytes, 0).unwrap();
    assert_eq!(file.metadata().unwrap().len(), bytes.len() as u64);
}

/// An old cycle of four commits, a checkpoint's recycle, a new cycle of
/// two: every cut of the new cycle over the old bytes, and both header
/// swaps, replay exactly the new commits before the cut.
#[test]
fn every_cut_of_a_recycled_cycle_replays_exactly_its_complete_commits() {
    let dir = fresh_dir("wal_crash_images_cuts");
    let path = dir.join("wal.pyro");
    let (old_cycle, new_cycle) = (old_commits(), new_commits());
    let wal = Wal::open_or_create(&path).unwrap();
    write(&wal, &old_cycle);
    let old = std::fs::read(&path).unwrap();
    wal.recycle(u64::MAX).unwrap();
    write(&wal, &new_cycle);
    let end = wal.size() as usize;
    drop(wal);
    let new = std::fs::read(&path).unwrap();
    assert_eq!(new.len(), old.len(), "the recycled file keeps its length");
    assert_eq!(end, WAL_HEADER_LEN as usize + new_cycle.len() * COMMIT_LEN);
    assert_eq!(
        old.len(),
        WAL_HEADER_LEN as usize + old_cycle.len() * COMMIT_LEN
    );

    let start = Instant::now();
    let header = WAL_HEADER_LEN as usize;
    let state = State::new(&dir);
    let mut states = 0;
    for t in header..=end {
        let mut log = new[..t].to_vec();
        log.extend_from_slice(&old[t..]);
        let complete = (t - header) / COMMIT_LEN;
        let (replay, pages) = state.recover(&log);
        assert_eq!(replay.commits, complete as u64, "cut at byte {t}");
        assert_eq!(
            pages,
            expected_pages(&new_cycle[..complete]),
            "cut at byte {t}"
        );
        states += 1;
    }
    // The checkpoint's header without the new cycle's appends, and the
    // appends without the header: neither replays anything.
    for (what, log) in [
        (
            "new header, old body",
            [&new[..header], &old[header..]].concat(),
        ),
        (
            "old header, new body",
            [&old[..header], &new[header..]].concat(),
        ),
    ] {
        let (replay, pages) = state.recover(&log);
        assert_eq!(replay, WalReplay::default(), "{what}");
        assert_eq!(pages, expected_pages(&[]), "{what}");
        states += 1;
    }
    println!(
        "wal crash images: {states} states recovered in {:.2} s, none wrong",
        start.elapsed().as_secs_f64()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The case an LSN check alone would miss. A flipped byte stops recovery
/// inside commit 1; the next cycle then ends exactly where commit 1's
/// intact records begin, and their LSNs continue the new cycle's. Only
/// the epoch keeps commit 1 — and the new cycle's uncommitted image that
/// it would seal — from replaying.
#[test]
fn a_flipped_commit_never_resurfaces_behind_the_next_cycle() {
    let dir = fresh_dir("wal_crash_images_flip");
    let path = dir.join("wal.pyro");
    let old_cycle = old_commits();
    write(&Wal::open_or_create(&path).unwrap(), &old_cycle);
    let header = WAL_HEADER_LEN as usize;
    let mut log = std::fs::read(&path).unwrap();
    log[header + COMMIT_LEN + 25 + 7] ^= 0x40; // commit 1, first image
    std::fs::write(&path, &log).unwrap();

    let dev = FileDevice::create_with_block_size(dir.join("recovered.pyro"), BLOCK).unwrap();
    let wal = Wal::open_or_create(&path).unwrap();
    let replay = wal.recover(&dev).unwrap();
    assert_eq!((replay.commits, replay.pages_replayed), (1, 2));
    // One commit, then one image, with LSNs 0-3: the file continues with
    // commit 1's second image (LSN 4) and its marker (LSN 5), intact.
    let new_cycle = new_commits();
    write(&wal, &new_cycle[..1]);
    wal.append_page(3, &image("new, never committed")).unwrap();
    wal.sync().unwrap();
    assert_eq!(wal.size() as usize, header + COMMIT_LEN + 25 + IMAGE);
    drop(wal);

    let (replay, pages) = State::new(&dir).recover(&std::fs::read(&path).unwrap());
    assert_eq!(replay.commits, 1);
    assert_eq!(replay.records_discarded, 1, "the uncommitted image");
    assert_eq!(pages, expected_pages(&new_cycle[..1]));
    let _ = std::fs::remove_dir_all(&dir);
}
