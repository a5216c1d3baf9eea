"""The three categories: objects, morphism classes, hom-sets and their laws."""
