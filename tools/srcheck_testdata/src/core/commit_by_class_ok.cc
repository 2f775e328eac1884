// C7 positive fixture: two classes each define a member named WriteNode,
// and only one of them stages. The commit-protocol summaries are keyed by
// class, so the in-place writer's constructor, which calls its own
// WriteNode and never commits, does not inherit the staging class's
// obligation. Zero findings.

class Mutex {};

class MutexLock {
 public:
  explicit MutexLock(Mutex& mu);
};

class PageStore {
 public:
  void StageWrite(int page_id, int payload);
  void Commit();
  void Write(int page_id, int payload);
};

Mutex writer_mu_;

// Copy-on-write writer: WriteNode stages, Insert publishes.
class StagingTree {
 public:
  void Insert(int payload);

 private:
  void WriteNode(int payload);

  PageStore store_;
};

void StagingTree::WriteNode(int payload) { store_.StageWrite(1, payload); }

void StagingTree::Insert(int payload) {
  MutexLock lock(writer_mu_);
  WriteNode(payload);
  store_.Commit();
}

// In-place writer: its WriteNode never stages, so its constructor has
// nothing to commit.
class InPlaceTree {
 public:
  InPlaceTree();

 private:
  void WriteNode(int payload);

  PageStore store_;
};

InPlaceTree::InPlaceTree() { WriteNode(0); }

void InPlaceTree::WriteNode(int payload) { store_.Write(2, payload); }
