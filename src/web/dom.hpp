// Document Object Model.
//
// The browser pipelines build a real DOM tree from parsed HTML (and insert
// document.write output from the script interpreter).  Layout cost models
// walk this tree, and the "both pipelines produce the same final DOM"
// invariant from the paper's Fig 5 is checked structurally in tests.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eab::web {

/// One DOM node: an element with a tag and attributes, or a text node.
class DomNode {
 public:
  enum class Type { kElement, kText };

  using Attributes = std::vector<std::pair<std::string, std::string>>;

  /// Creates an element node.  `tag` must already be lower-cased (the
  /// tokenizer cuts names that way).  `attrs` are applied in order, as by
  /// set_attr: a repeated name keeps its first position and its last value.
  static std::unique_ptr<DomNode> element(std::string tag,
                                          Attributes attrs = {});
  /// Creates a text node.
  static std::unique_ptr<DomNode> text(std::string content);

  Type type() const { return type_; }
  bool is_element() const { return type_ == Type::kElement; }
  bool is_text() const { return type_ == Type::kText; }

  /// Element tag name (lower-cased); empty for text nodes.
  const std::string& tag() const { return tag_; }
  /// Text content; empty for element nodes.
  const std::string& content() const { return content_; }

  /// Attribute access. Returns empty string when absent.
  const std::string& attr(std::string_view name) const;
  bool has_attr(std::string_view name) const;
  void set_attr(std::string name, std::string value);
  const Attributes& attrs() const { return attrs_; }

  /// Appends a child; returns a reference to the adopted node.
  DomNode& append_child(std::unique_ptr<DomNode> child);

  DomNode* parent() const { return parent_; }
  const std::vector<std::unique_ptr<DomNode>>& children() const {
    return children_;
  }

  /// Nodes in this subtree (including this one).
  std::size_t subtree_size() const;
  /// Depth of the deepest descendant, counting this node as 1.
  std::size_t subtree_depth() const;

  /// Pre-order traversal over the subtree.
  void visit(const std::function<void(const DomNode&)>& fn) const;

  /// Concatenated text of all descendant text nodes.
  std::string text_content() const;

 private:
  explicit DomNode(Type type) : type_(type) {}

  Type type_;
  std::string tag_;
  std::string content_;
  Attributes attrs_;
  std::vector<std::unique_ptr<DomNode>> children_;
  DomNode* parent_ = nullptr;
};

/// A parsed document: a synthetic root element holding the top-level nodes.
class DomTree {
 public:
  DomTree();

  DomNode& root() { return *root_; }
  const DomNode& root() const { return *root_; }

  /// Total number of nodes including the root.
  std::size_t node_count() const { return root_->subtree_size(); }

  /// All elements with the given tag, in document order.
  std::vector<const DomNode*> find_all(const std::string& tag) const;

  /// First element with the given tag, or nullptr.
  const DomNode* find_first(const std::string& tag) const;

  /// A structural fingerprint (tags, attribute names/values, text lengths in
  /// pre-order); two trees with equal signatures are structurally identical.
  std::string signature() const;

 private:
  std::unique_ptr<DomNode> root_;
};

}  // namespace eab::web
