// Intrusive doubly-linked list for the engine's bookkeeping: O(1)
// push_back and erase of a node that carries its own hooks, and iteration
// in insertion order. The list owns no node. T provides two pointer
// members, `list_prev` and `list_next`, both null while T is unlinked.
#pragma once

namespace portus::sim {

template <typename T>
class IntrusiveList {
 public:
  IntrusiveList() = default;
  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  bool empty() const { return head_ == nullptr; }
  T* front() const { return head_; }

  void push_back(T* n) {
    n->list_prev = tail_;
    n->list_next = nullptr;
    (tail_ != nullptr ? tail_->list_next : head_) = n;
    tail_ = n;
  }

  // Unlinks `n`; a node that is not linked here is left alone.
  void erase(T* n) {
    if (n->list_prev == nullptr && head_ != n) return;
    (n->list_prev != nullptr ? n->list_prev->list_next : head_) = n->list_next;
    (n->list_next != nullptr ? n->list_next->list_prev : tail_) = n->list_prev;
    n->list_prev = n->list_next = nullptr;
  }

  // Calls f(node) in insertion order; f may erase the node it is given.
  template <typename F>
  void for_each(F f) {
    for (T* n = head_; n != nullptr;) {
      T* next = n->list_next;
      f(n);
      n = next;
    }
  }

 private:
  T* head_ = nullptr;
  T* tail_ = nullptr;
};

}  // namespace portus::sim
